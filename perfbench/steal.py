"""Steal-corrected timing.

On a virtual machine the hypervisor can hold back this guest's CPUs while
they have work, to run other guests; ``/proc/stat`` counts that time as
*steal*.  An interval timed by the wall clock then includes time in which
the benchmark could not run at all, and how much depends on the
neighbours' load, not on the program: on a shared 4-vCPU host, runs of
the same code differed by 30-50% with it left in.

:func:`unstolen` takes it out.  Over an interval the VM's CPUs were
runnable for ``busy + steal`` ticks, all CPUs together, and the share
``steal / (busy + steal)`` of that went to other guests; the interval is
charged the rest of its wall time.  This assumes the hypervisor holds
back the benchmark's critical path as often as the rest of its runnable
time.  With no steal it returns the wall time unchanged.
"""

from __future__ import annotations


def cpu_ticks() -> tuple[int, int]:
    """``(busy, steal)`` ticks of all CPUs since boot, from ``/proc/stat``:
    time the CPUs ran user, system or interrupt code, and time they were
    runnable but held back by the hypervisor."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = t
    return user + nice + system + irq + softirq, steal


def unstolen(wall_s: float, before: tuple[int, int],
             after: tuple[int, int]) -> float:
    """``wall_s`` less the share the hypervisor stole, given the
    :func:`cpu_ticks` read just before and just after the interval."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    if busy <= 0:
        return wall_s
    return wall_s * busy / (busy + steal)


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the runnable CPU time between two readings that went to
    other guests."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0
