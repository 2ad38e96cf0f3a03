"""Shared fixtures for the test suite.

The session-scoped ``spark`` fixture comes from the repo-root
conftest. Here we add small JSON-Lines datasets on disk (the engines
under test read files, like the paper's HDFS/S3 inputs) and engine
factories.

Every test engine with Spark is built by :func:`spark_engine`, with
:data:`SPARK_CONFIG`: the test inputs are far below the size the
engine would read locally, and a test of the Spark path must not
quietly compare the local engine with itself (``test_hygiene``).
"""
from __future__ import annotations

from dataclasses import replace

import pytest

from repro import synth_data
from repro.core import Rumble, RumbleConfig

#: Unit-test dataset sizes (SF<=0.01-equivalent: ~2k objects, < 1 MB).
N_CONFUSION = 2_000
N_REDDIT = 2_000

#: The config of every test engine with Spark: no input is small enough
#: to be read locally.
SPARK_CONFIG = RumbleConfig(local_below_bytes=0)


def spark_engine(spark, **config) -> Rumble:
    """An engine over ``spark`` with :data:`SPARK_CONFIG`, and ``config``
    overriding its fields."""
    return Rumble(spark, replace(SPARK_CONFIG, **config))


@pytest.fixture(scope="session")
def confusion_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("data") / "confusion.json"
    return synth_data.write_confusion(str(p), N_CONFUSION)


@pytest.fixture(scope="session")
def confusion_pdf():
    return synth_data.confusion_pandas(N_CONFUSION)


@pytest.fixture(scope="session")
def reddit_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("data") / "reddit.json"
    return synth_data.write_reddit(str(p), N_REDDIT)


@pytest.fixture(scope="session")
def mess_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("data") / "mess.json"
    return synth_data.write_jsonlines(str(p), synth_data.mess_rows())


@pytest.fixture()
def local_engine() -> Rumble:
    """A pure single-threaded engine (no Spark involvement)."""
    return Rumble(spark=None, config=RumbleConfig(force_local=True))


@pytest.fixture()
def rumble(spark) -> Rumble:
    """The full engine with Spark available."""
    return spark_engine(spark)
