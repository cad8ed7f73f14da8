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


@pytest.fixture
def watch_records(monkeypatch):
    """Call it to get the ids of the records built from then on: by the
    constructor, or filled in unchecked from columns (to_records)."""

    def watch() -> list:
        built = []
        check, filled = IllnessDeathRecord.__post_init__, IllnessDeathRecord._filled

        def counting_check(record):
            built.append(record.id)
            check(record)

        def counting_fill(ids, *columns):
            built.extend(ids)
            return filled(ids, *columns)

        monkeypatch.setattr(IllnessDeathRecord, "__post_init__", counting_check)
        monkeypatch.setattr(IllnessDeathRecord, "_filled", counting_fill)
        return built

    return watch
