"""repro.eval — report types and renderers for the paper's tables/figures.

The registry grids in :mod:`repro.experiments.registry` produce the
numbers; ``ResultSet.report()`` fills these types from the records.
"""

from .figure5 import (
    PAPER_CCR_GAINS,
    VARIANTS,
    Figure5Report,
    Figure5Result,
    variant_config,
)
from .table3 import Table3Report, Table3Row
from .tables import fmt_or_na, render_bars, render_markdown_table, render_table
from .timeout import TimedResult, Timeout, run_with_timeout
from .zhang import ZhangReport, ZhangRow

__all__ = [
    "Figure5Report",
    "Figure5Result",
    "PAPER_CCR_GAINS",
    "Table3Report",
    "Table3Row",
    "TimedResult",
    "Timeout",
    "VARIANTS",
    "ZhangReport",
    "ZhangRow",
    "fmt_or_na",
    "render_bars",
    "render_markdown_table",
    "render_table",
    "run_with_timeout",
    "variant_config",
]
