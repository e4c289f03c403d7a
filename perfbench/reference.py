"""Fixed reference tasks that measure how fast the host runs right now.

Host speed on a shared machine drifts: on the test machine (2 vCPUs of a
shared 2.1 GHz Xeon host, Python 3.11.7) the same `matrix` run took 4.1 s
and 6.9 s five minutes apart, and importing `guardsim` 30 ms or 50 ms.
`run.py` therefore times these tasks in the processes of a run and reports
each time as if the host had run the task in its nominal time. The tasks
import nothing, so they load no module that `guardsim` would load itself,
and no change to the program can change them.

Over eight 40 s runs of `long_flood` on that machine, the spread
(interquartile range over median) of the median wall time was 0.28 raw and
0.08 when each timed run is divided by `run_task` timed before and after
it; import time spread 0.22 raw and 0.06 divided by `setup_task` timed
just before it. Dividing the run's median time by the median task time
instead gave 0.09 for both.
"""

import time

LOOPS = 3_000_000
CLASSES = 20
FIELDS = 10


def run_task() -> float:
    """Seconds for a fixed pure-Python arithmetic loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def _class_source(i: int) -> str:
    """A class with FIELDS fields and the `__init__`, `__repr__` and
    `__eq__` that dataclass code generation writes for it."""
    names = [f"f{j}" for j in range(FIELDS)]
    args = ", ".join(f"{n}={j}" for j, n in enumerate(names))
    lines = [f"class C{i}:",
             f"    __slots__ = {tuple(names)!r}",
             f"    def __init__(self, {args}):"]
    lines += [f"        self.{n} = {n}" for n in names]
    lines += ["    def __repr__(self):",
              f"        return f'C{i}(" + ", ".join(
                  f"{n}={{self.{n}!r}}" for n in names) + ")'",
              "    def __eq__(self, other):",
              "        if other.__class__ is not self.__class__:",
              "            return NotImplemented",
              "        return (" + ", ".join(f"self.{n}" for n in names)
              + ",) == (" + ", ".join(f"other.{n}" for n in names) + ",)"]
    return "\n".join(lines) + "\n"


def setup_task() -> float:
    """Seconds for work shaped like importing `guardsim`, which is mostly
    compiling and executing generated class code: CLASSES classes of
    FIELDS fields, written out as source, compiled and executed."""
    t0 = time.perf_counter()
    for i in range(CLASSES):
        namespace: dict = {}
        exec(compile(_class_source(i), f"<C{i}>", "exec"), namespace)
    return time.perf_counter() - t0
