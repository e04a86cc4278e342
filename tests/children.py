"""Child interpreters for the tests that start Python or figfig as a program.

Every child runs sys.executable with the tree under test first on
PYTHONPATH, found from figfig.__file__, so a `-m figfig` or `-S` child
imports the same figfig as the test that starts it.  Every child has a
time limit of TIMEOUT seconds, and none outlives its test.
"""

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import figfig

TIMEOUT = 60  # seconds
TREE = str(Path(figfig.__file__).resolve().parent.parent)


def _command(args, flags):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (TREE, os.environ.get("PYTHONPATH"))))}
    return [sys.executable, *flags, *args], env


def run_python(*args, flags=(), timeout=TIMEOUT, **kwargs):
    """subprocess.run of `python [flags] args`, killed after timeout seconds."""
    command, env = _command(args, flags)
    return subprocess.run(command, env=env, timeout=timeout, **kwargs)


def run_figfig(*argv, **kwargs):
    """`python -m figfig argv` by run_python, stdout and stderr captured as
    text unless kwargs send them elsewhere."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return run_python("-m", "figfig", *argv, **kwargs)


@contextmanager
def started(*args, flags=(), **kwargs):
    """A Popen child of `python [flags] args` for the block to read from.

    The child is killed and waited for when the block ends.  If it is
    still running after TIMEOUT seconds it is killed then, so a blocked
    read ends, and the block raises TimeoutExpired.
    """
    command, env = _command(args, flags)
    expired = threading.Event()
    with subprocess.Popen(command, env=env, **kwargs) as proc:

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(TIMEOUT, expire)
        timer.start()
        try:
            yield proc
        finally:
            timer.cancel()
            proc.kill()
            if expired.is_set():
                raise subprocess.TimeoutExpired(command, TIMEOUT)
