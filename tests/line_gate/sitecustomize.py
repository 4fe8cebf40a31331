"""Line recorder for the line gate (``check.py`` in this directory).

Any Python 3.12+ process that starts with a copy of this file first on
``PYTHONPATH`` records which lines of the package run: a ``sys.monitoring``
(PEP 669) LINE callback notes each line of a file under a ``nodalbn``
directory and returns DISABLE, so each line location costs one call.  At
exit the process appends its lines, one ``path<TAB>line`` per row, to
``lines-<pid>.txt`` beside the copy.  It imports nothing that start-up has
not loaded already, so a test that counts a command's modules sees none.
"""

import os
import sys


def _install() -> None:
    import atexit

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    monitoring.use_tool_id(tool, "line gate")
    here = os.path.dirname(os.path.abspath(__file__))
    mark = f"{os.sep}nodalbn{os.sep}"
    seen = set()

    def line(code, number):
        if mark in code.co_filename:
            seen.add((code.co_filename, number))
        return monitoring.DISABLE

    def dump():
        with open(os.path.join(here, f"lines-{os.getpid()}.txt"), "a") as out:
            out.writelines(f"{os.path.abspath(name)}\t{number}\n" for name, number in seen)

    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    atexit.register(dump)


if hasattr(sys, "monitoring"):
    _install()
