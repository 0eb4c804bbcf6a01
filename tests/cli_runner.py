"""Run the CLI in process with stdout and stderr captured.

``CliRunner().invoke(main, args, env=...)`` calls ``main(args)`` and returns
a :class:`Result`. ``env`` patches the environment for the call; a ``None``
value unsets the variable. ``output`` holds stdout and stderr interleaved, as
a terminal would show them. ``exception`` is ``None`` after exit 0 and the
``SystemExit`` after any other exit code.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """A captured stream that also copies every write to a shared one."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


def _patch_env(env: dict) -> dict:
    """Apply ``env`` (a ``None`` value unsets) and return what it replaced."""
    saved = {key: os.environ.get(key) for key in env}
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    return saved


class CliRunner:
    def invoke(self, main, args, env=None) -> Result:
        mixed = io.StringIO()
        out, err = _Stream(mixed), _Stream(mixed)
        saved = _patch_env(env or {})
        exit_code, exception = 0, None  # main always exits; a return counts as 0
        try:
            with redirect_stdout(out), redirect_stderr(err):
                main(list(args), prog_name="obstructor")
        except SystemExit as exc:
            if exc.code:
                exit_code, exception = exc.code, exc
        finally:
            _patch_env(saved)
        return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(),
                      exception)
