"""``repro.experiments`` — one module per paper artifact (tables & figures)
and one for the ablations beyond the paper."""

from .ablations import AblationsResult, run_ablations
from .configs import (
    PAPER_PARAMETERS,
    SCALES,
    TABLE2_MODELS,
    TABLE3_PAPER_ACCURACY,
    ExperimentScale,
    get_scale,
)
from .fig2 import Fig2Result, REGIMES, prepare_fig2_data, run_fig2
from .fig3 import Fig3Result, TRANSCRIPT_STAGES, run_fig3
from .report import ascii_plot, format_series, format_table
from .table3 import Table3Result, prepare_table3_data, run_table3, run_table3_cell

__all__ = [
    "PAPER_PARAMETERS", "TABLE2_MODELS", "TABLE3_PAPER_ACCURACY",
    "ExperimentScale", "SCALES", "get_scale",
    "Table3Result", "run_table3", "run_table3_cell", "prepare_table3_data",
    "Fig2Result", "run_fig2", "REGIMES", "prepare_fig2_data",
    "Fig3Result", "run_fig3", "TRANSCRIPT_STAGES",
    "AblationsResult", "run_ablations",
    "format_table", "format_series", "ascii_plot",
]
