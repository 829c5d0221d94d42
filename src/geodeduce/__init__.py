"""Geometric theorem finding: saturation, numeric filtering, ranking."""

from .construction import (Construction, ConstructionError, ConstructionStep,
                           initial_facts, parse_construction)
from .engine import Derivation, DerivationDag, SaturationResult, saturate
from .facts import (Fact, canonicalize, is_degenerate, is_tautology, make_fact,
                    parse_fact)
from .numeric import (CoordinateModel, DegenerateModelError, Verdict,
                      eval_fact, instantiate, verify)
from .pipeline import (PipelineConfig, Report, SoundnessViolationError,
                       emit_report, run_pipeline)
from .rules import Rule, RuleParseError, parse_rules
from .scoring import (MetricConfig, ScoreCard, filter_interesting,
                      parse_metric_config, score_all)

__version__ = "0.1.0"

__all__ = [
    "Construction", "ConstructionError", "ConstructionStep",
    "CoordinateModel", "DegenerateModelError", "Derivation",
    "DerivationDag", "Fact", "MetricConfig", "PipelineConfig",
    "Report", "Rule", "RuleParseError", "SaturationResult", "ScoreCard",
    "SoundnessViolationError", "Verdict", "canonicalize", "emit_report",
    "eval_fact", "filter_interesting", "initial_facts",
    "instantiate", "is_degenerate", "is_tautology", "make_fact",
    "parse_construction", "parse_fact", "parse_metric_config",
    "parse_rules", "run_pipeline", "saturate", "score_all", "verify",
]
