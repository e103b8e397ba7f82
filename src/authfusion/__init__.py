"""Multi-factor authentication fusion for high-end IoT devices.

Models a catalog of authentication factors (what they are, how fast they
run, how often they err), fuses their binary outcomes under All / Any /
k-of-n / weighted-threshold policies, derives composite FAR/FRR
analytically or by Monte Carlo, adapts weights to trust and operating
context, and simulates full three-phase sessions (pre-authentication,
active authentication, continuous monitoring) with revocation.
"""

__version__ = "0.1.0"

from .catalog import (
    ActionMode,
    CapabilityFlags,
    DEFAULT_CATALOG,
    DurationBand,
    DurationClass,
    Factor,
    FactorCategory,
    GateResult,
    Tristate,
    catalog_index,
    catalog_to_yaml,
    gate_factors,
    load_catalog,
)
from .context import (
    ContextRule,
    ContextState,
    DEFAULT_CONTEXT_RULES,
    RuleEffect,
    SessionPhase,
)
from .errors import (
    AuthFusionError,
    CapacityError,
    ConfigError,
    EvaluationError,
    NoUsableFactorsError,
)
from .fusion import (
    Decision,
    EvidenceRecord,
    Policy,
    Strategy,
    StrategyKind,
    decide,
    equivalent_kofn,
    load_evidence,
    load_policy,
)
from .reliability import (
    CompositeRates,
    MonteCarloRates,
    PassCountDistribution,
    RateEstimate,
    SweepRow,
    compose_all,
    compose_any,
    compose_kofn,
    compose_weighted,
    monte_carlo_rates,
    pass_count_distribution,
    sweep,
    sweep_to_csv,
)
from .session import (
    ArrivalOfEvidence,
    GrantTier,
    GrantTiming,
    MonitorConfig,
    PhaseTimeout,
    Scenario,
    SessionConfig,
    SessionMachine,
    SessionState,
    SimulationReport,
    Terminal,
    Tick,
    load_scenario,
    report_summary,
    report_to_csv,
    run_simulation,
    time_to_grant,
    validate_scenario,
)
from .trust import (
    DEFAULT_TRUST_MODEL,
    SourceClass,
    TrustAssignment,
    TrustModel,
    TrustStore,
    assign_trust,
    effective_weights,
    load_trust_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
