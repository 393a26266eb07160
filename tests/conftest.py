import pathlib

import pytest
from hypothesis import HealthCheck, settings

import depmark

# the suite draws the same examples on every run and replays no local
# example database, so two runs of one tree pass or fail alike
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# One line per acceptance criterion, emitted after the run so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dfwcs() -> depmark.MarkovModel:
    return depmark.load_model(depmark.bundled_model_path("dfwcs.mdl"))


@pytest.fixture(scope="session")
def dfwcs_pid() -> depmark.MarkovModel:
    return depmark.load_model(depmark.bundled_model_path("dfwcs_pid.mdl"))


@pytest.fixture(scope="session")
def toy() -> depmark.MarkovModel:
    return depmark.load_model(depmark.bundled_model_path("toy_twostate.mdl"))
