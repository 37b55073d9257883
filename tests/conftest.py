"""Suite-wide fixtures.

The run ledger defaults to appending under ``~/.cache/repro``; tests
must never touch the developer's real ledger, so the switch is forced
off for every test.  Ledger tests opt back in with ``monkeypatch`` or
by constructing :class:`~repro.telemetry.ledger.RunLedger` on a tmp
path directly.

Failure capture is likewise forced off (a failing test's runner jobs
must not litter ``.repro-failures/``); capture/replay tests opt back in
with ``monkeypatch``.

Every test runs inside one :func:`~repro.telemetry.runtime.observing`
scope over the whole observer table: fresh metrics, trace, span and
physics sinks with their guards off, and the sanitizer level as the
test found it.  Whatever a test switches, every sink, guard and the
level come back afterwards.  ``REPRO_SANITIZE`` is deliberately **left
alone** — CI runs the whole tier-1 suite under ``REPRO_SANITIZE=full``,
so every test runs at that level unless it sets one itself.

``--dram-engine reference`` reruns any selection of tests with every
:class:`~repro.dram.module.DramModule` built on the per-command
reference banks (the differential CI job runs the core DRAM suite this
way); the default, ``columnar``, leaves production banks in place.
"""

import pytest

import repro.sanitizer.runtime  # noqa: F401  (adds the "sanitize" observer)
from repro.dram.differential import BANK_CLASSES
from repro.dram.module import DramModule
from repro.telemetry import runtime as telem


def pytest_addoption(parser):
    parser.addoption(
        "--dram-engine", choices=sorted(BANK_CLASSES), default="columnar",
        help="bank engine DramModule builds for this test session")


@pytest.fixture(scope="session", autouse=True)
def _dram_engine(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DramModule, "bank_class",
                   BANK_CLASSES[request.config.getoption("--dram-engine")])
        yield


@pytest.fixture(autouse=True)
def _ledger_off(monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)


@pytest.fixture(autouse=True)
def _capture_off(monkeypatch):
    monkeypatch.setenv("REPRO_CAPTURE", "off")


@pytest.fixture(autouse=True)
def _observers():
    with telem.observing(**{name: obs.new() for name, obs in telem.OBSERVERS.items()
                            if isinstance(obs, telem.SinkObserver)}):
        telem.disable_all()
        yield
