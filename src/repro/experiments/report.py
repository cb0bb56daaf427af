"""One-call regeneration of the paper's entire evaluation.

``full_report(n)`` builds an n-loop corpus, measures it under the slack
scheduler and the Cydrome-style baseline, and renders every table and
figure of the paper plus the §6 effort statistics — the programmatic
equivalent of running the whole benchmark suite, for use from the CLI
(``python -m repro --paper-report 300``) or notebooks.
"""

from __future__ import annotations

from typing import Optional

from repro.core import SchedulerOptions
from repro.machine import Machine, cydra5
from repro.workloads import paper_corpus
from repro.experiments.figures import figure5, figure6, figure7, figure8
from repro.experiments.runner import run_corpus
from repro.experiments.tables import section6_effort, table2, table3, table4

_RULE = "=" * 72


def full_report(
    n: int = 300,
    machine: Optional[Machine] = None,
    seed: int = 1993,
    options: Optional[SchedulerOptions] = None,
    jobs: int = 1,
) -> str:
    """Render Tables 2-4, Figures 5-8 and the §6 statistics as one string.

    ``jobs`` > 1 routes the two corpus measurements through the batch
    scheduling service's worker pool; the rendered output is identical
    either way.
    """
    machine = machine or cydra5()
    loops = paper_corpus(n, seed=seed)
    new = run_corpus(
        loops, machine, algorithm="slack", options=options, jobs=jobs,
    )
    old = run_corpus(
        loops, machine, algorithm="cydrome", options=options, jobs=jobs,
    )

    sections = [
        f"Lifetime-Sensitive Modulo Scheduling — evaluation over {n} loops",
        table2(new),
        table3(new),
        table4(old),
        section6_effort(new),
        figure5(new, old),
        figure6(new, old),
        figure7(new, old),
        figure8(new),
    ]
    return ("\n" + _RULE + "\n").join(sections)
