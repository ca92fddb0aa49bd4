import os

import pytest


def _left_pipe():
    """The write end of a pipe whose reader has already left."""
    read, write = os.pipe()
    os.close(read)
    return {"stdout": write}


def _full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return {"stdout": os.open("/dev/full", os.O_WRONLY)}


def _closed_stdout():
    return {"preexec_fn": lambda: os.close(1)}


@pytest.fixture(params=[(_left_pipe, "Broken pipe"),
                        (_full_device, "No space left on device"),
                        (_closed_stdout, "stdout is closed")],
                ids=["broken-pipe", "full-device", "closed-stdout"])
def unwritable_stdout(request):
    """``(streams, reason)``: ``subprocess.run`` keyword arguments that give
    the child a stdout it cannot write, and the ``strerror`` it meets."""
    make, reason = request.param
    streams = make()
    yield streams, reason
    if "stdout" in streams:
        os.close(streams["stdout"])
