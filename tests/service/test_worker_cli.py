"""``repro worker`` and ``repro-worker`` parse one set of flags.

Both entry points hand their namespace to
:func:`repro.service.worker.run_worker`; patched here, it records the
namespace instead of serving.
"""

import pytest

from repro.service import cli, worker

ARGVS = [
    [],
    ["--port", "0", "--host", "0.0.0.0"],
    ["--register", "10.0.0.1:7736", "--advertise", "10.0.0.2:7737",
     "--register-interval", "0", "--drain-timeout", "2.5"],
    ["--chaos-plan", '{"seed": 1}', "--log-format", "json", "-v"],
]


@pytest.fixture()
def parsed(monkeypatch):
    seen = []
    monkeypatch.setattr(worker, "run_worker", lambda args: seen.append(args) or 0)

    def parse(entry, argv):
        assert entry(argv) == 0
        return vars(seen.pop())

    return parse


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "defaults")
def test_both_entry_points_parse_equal_namespaces(parsed, argv):
    standalone = parsed(worker.main, argv)
    subcommand = parsed(cli.main, ["worker", *argv])
    assert subcommand.pop("command") == "worker"
    assert subcommand == standalone


def test_defaults(parsed):
    args = parsed(worker.main, [])
    assert args["port"] == 7737 == worker.DEFAULT_PORT
    assert args["register_interval"] == 30.0
    assert args["drain_timeout"] == 30.0
    assert args["log_format"] == "plain"
