"""Start-up cost: numpy is imported only where the hull and the games run.

Each case starts a fresh interpreter, so modules imported by earlier tests
in this process cannot hide an import.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsverify import cli

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI on the given argv, then writes its exit code and whether
#: numpy was imported to stderr as one JSON line.
RUNNER = (
    "import json, sys\n"
    "from qsverify import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps({'exit': code, 'numpy': 'numpy' in sys.modules}))\n"
)

TWO_LEVEL = '{"homogeneous": {"lambda": 0.5}}'
THREE_LEVEL = '{"eigenvalues": [1, 0.6, 0.2]}'
TARGET = ["--epsilon", "0.05", "--delta", "0.05"]


def _fresh(args, stdin=""):
    """(exit code, stdout, stderr) of a new interpreter; output kept byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], input=stdin.encode(), env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _fresh_cli(argv, stdin=""):
    _, out, err = _fresh(["-c", RUNNER, *argv], stdin)
    status = json.loads(err.splitlines()[-1])
    return status["exit"], out, status["numpy"]


def _in_process(argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def test_import_cli_leaves_numpy_out():
    code, out, err = _fresh(["-c", "import sys, qsverify.cli; print('numpy' in sys.modules)"])
    assert code == 0, err
    assert out.strip() == "False"


NO_HULL = [
    pytest.param(["analyze", "--N", "3", *TARGET], TWO_LEVEL, id="analyze"),
    pytest.param(["plan", *TARGET], THREE_LEVEL, id="plan-honest"),
    pytest.param(["plan", "--adversarial", *TARGET, "--format", "json"],
                 '{"protocol": {"family": "StabilizerQubit", "n": 5}}',
                 id="plan-protocol"),
    pytest.param(["plan", "--adversarial", *TARGET], TWO_LEVEL, id="plan-d2"),
    pytest.param(["plan", "--adversarial", "--hedge", "none", *TARGET],
                 '{"eigenvalues": [1, 0.4, 0]}', id="plan-singular-nu-half"),
    pytest.param(["sweep", "--param", "lambda", "--range", "0.2:0.6:3"], "",
                 id="sweep"),
    pytest.param(["single-copy", "--epsilon", "0.9", "--delta", "0.45",
                  "--beta", "0.3", "--tau", "0.2"], "", id="single-copy"),
    pytest.param(["table1", "--epsilon", "0.01", "--delta", "0.01",
                  "--format", "json"], "", id="table1"),
]


@pytest.mark.parametrize("argv, stdin", NO_HULL)
def test_closed_form_commands_run_without_numpy(argv, stdin):
    got, out, numpy_loaded = _fresh_cli(argv, stdin)
    assert got == 0
    assert not numpy_loaded
    assert (got, out) == _in_process(argv, stdin)


NEEDS_ARRAYS = [
    pytest.param(["plan", "--adversarial", "--hedge", "none", *TARGET,
                  "--format", "json"], THREE_LEVEL, id="plan-hull"),
    pytest.param(["simulate", "estimator", "--lam", "0.3", "--fidelity", "0.8",
                  "--n-tests", "50", "--trials", "2000"], "", id="simulate-estimator"),
    pytest.param(["simulate", "block", "--trials", "2000"],
                 '{"eigenvalues": [1, 0.6, 0.2], '
                 '"mixture": [{"k": [2, 1, 0], "c": 0.5}, {"k": [0, 1, 2], "c": 0.5}]}',
                 id="simulate-block"),
]


@pytest.mark.parametrize("argv, stdin", NEEDS_ARRAYS)
def test_hull_and_games_import_numpy_on_first_use(argv, stdin):
    got, out, numpy_loaded = _fresh_cli(argv, stdin)
    assert got == 0
    assert numpy_loaded
    assert (got, out) == _in_process(argv, stdin)
    if argv[0] == "plan":
        assert json.loads(out)["results"]["n_tests_adversarial"] == 192
