"""Child processes that cannot outlive the test that started them.

:func:`tied` gives a ``preexec_fn`` under which the kernel sends the
child SIGKILL when the thread that started it ends, however it ends
(Linux's ``PR_SET_PDEATHSIG``). A test that starts a process meant to run
until it is stopped starts it tied, so a killed pytest leaves nothing
running; where the tie is not available (``CAN_TIE`` false), such a
test is skipped.
"""

import ctypes
import os
import signal
import sys
from pathlib import Path

PR_SET_PDEATHSIG = 1
_prctl = None  # looked up here, in the parent: a forked child only calls it
if sys.platform.startswith("linux"):
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
    _prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    _prctl.restype = ctypes.c_int
CAN_TIE = _prctl is not None


def tied():
    """A ``preexec_fn`` that ties the child to the calling thread."""
    parent = os.getpid()

    def preexec():
        # if the tie did not take, or the parent died before it did, the
        # child ends here rather than run untied
        if (_prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0) != 0
                or os.getppid() != parent):
            os.kill(os.getpid(), signal.SIGKILL)
    return preexec


def running(pid: int) -> bool:
    """Whether the process ``pid`` exists and has not yet died (a zombie
    waiting to be reaped counts as dead). Linux only."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")
