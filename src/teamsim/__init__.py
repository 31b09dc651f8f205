"""Deterministic team-formation engine and agent-based experiment simulator.

Four assembly conditions over one population model: uniform random
assignment, a two-objective genetic optimizer, self-assembly through
fit-ranked teammate search, and self-assembly over fairness-re-ranked
recommendations. A statistics toolkit validates simulated team
compositions.
"""

__version__ = "0.1.0"

from .core import (
    DiversityProfile,
    Participant,
    Partition,
    Team,
    blau,
    coefficient_of_variation,
    normalized_blau,
    team_diversity_profile,
)
from .optimizer import (
    GaConfig,
    ParetoArchive,
    brute_force_partition,
    elbow_select,
    ga_partition,
    ga_partition_many,
    random_partition,
)
from .recommender import Criterion, Query, Recommendation, fit_score, marginal_diversity, rank_candidates
from .protocol import AssemblyError, AssemblyState, Event, replay
from .agents import AgentPolicy, ChoiceModelParams, StandardizationMoments, choice_probability, gen_query
from .population import DemographicSpec, load_population, save_population, synth_population
from .session import SessionResult, run_session
from .experiment import AuditReport, ExperimentConfig, ExperimentReport, choice_audit, run_experiment
from .stats import anova_f, bh_adjust, chi2_independence, logistic_fit, pairwise_diffs

__all__ = [
    "AgentPolicy",
    "AssemblyError",
    "AssemblyState",
    "AuditReport",
    "ChoiceModelParams",
    "Criterion",
    "DemographicSpec",
    "DiversityProfile",
    "Event",
    "ExperimentConfig",
    "ExperimentReport",
    "GaConfig",
    "ParetoArchive",
    "Participant",
    "Partition",
    "Query",
    "Recommendation",
    "SessionResult",
    "StandardizationMoments",
    "Team",
    "anova_f",
    "bh_adjust",
    "blau",
    "brute_force_partition",
    "chi2_independence",
    "choice_audit",
    "choice_probability",
    "coefficient_of_variation",
    "elbow_select",
    "fit_score",
    "ga_partition",
    "ga_partition_many",
    "gen_query",
    "load_population",
    "logistic_fit",
    "marginal_diversity",
    "normalized_blau",
    "pairwise_diffs",
    "random_partition",
    "rank_candidates",
    "replay",
    "run_experiment",
    "run_session",
    "save_population",
    "synth_population",
    "team_diversity_profile",
]
