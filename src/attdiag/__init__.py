"""attdiag: diagnose whether the ATT is empirically identified, bound it
under indexed selection assumptions, and measure how fragile the resulting
policy conclusion is."""

__version__ = "0.1.0"

from .decision import PolicyDecision, bias_robustness, fragility_index, minimax_rule
from .estimators import AttEstimate, MatchSpec, att_ipw, att_match, design_sensitivity, naive_diff
from .identification import (
    CurvatureSweep,
    Interval,
    OutcomeSupport,
    curvature_bounds,
    manski_bounds,
    oracle_curvature_bounds,
    sweep_tilting,
    sweep_trimming_proxy,
)
from .ingest import Dataset, SchemaSpec, fetch_dataset, merge, parse_table
from .propensity import PropensityModel, TrimRule, fit_logistic, score_dataset, trim
from .resample import BootstrapSummary, DecileReport, bootstrap_att, decile_att
from .simulation import SimConfig, apply_selection, nonid_witness, run_sweep
from .strata import (
    BinSpec,
    CellStatus,
    SupportMap,
    build_support_map,
    restrict_to_overlap,
    support_share,
)

__all__ = [name for name in dir() if not name.startswith("_")]
