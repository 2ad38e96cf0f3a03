"""Setuptools shim.

The container has no network and no `wheel` package, so PEP 517/660
editable builds (which shell out to `bdist_wheel`) cannot run. This
setup.py enables the legacy `pip install -e . --no-use-pep517` path
(configured globally in pip.conf), which uses egg-link and needs only
setuptools. Metadata lives in pyproject.toml; values are duplicated
here because the legacy path does not read [project].
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "pyspark>=4.1.2",
        "pyarrow>=16.1.0",
        "pandas>=2.2.2",
        "numpy>=1.26.4",
        "duckdb>=1.0.0",
        "orjson>=3.8.3",
    ],
)
