import os
from pathlib import Path

import pytest

from illnessdeath import Cause, IllnessDeathRecord, TransitionQuery

# the `python -m illnessdeath` subprocesses import the same source tree that
# the pytest `pythonpath` setting puts on this interpreter's sys.path
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)


@pytest.fixture
def cohort3():
    return [
        IllnessDeathRecord("A", 0, 1, Cause.ILL, 3, Cause.ABSORBED),
        IllnessDeathRecord("B", 0, 2, Cause.ABSORBED),
        IllnessDeathRecord("C", 0, 3, Cause.ILL, 6, Cause.ABSORBED),
    ]


@pytest.fixture
def cohort4(cohort3):
    return cohort3 + [IllnessDeathRecord("D", 0, 2.5, Cause.CENSORED)]


@pytest.fixture
def query():
    return TransitionQuery(1.5, 3.5)


@pytest.fixture
def toy_csv(tmp_path, cohort4):
    from illnessdeath import write_cohort

    path = tmp_path / "toy.csv"
    write_cohort(cohort4, path)
    return str(path)
