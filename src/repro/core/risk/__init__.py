"""Risk analysis (paper III): sensitivity, likelihood, risk matrix,
unwanted disclosure, value risk and pseudonymisation risk."""

from .consentchange import ConsentChangeReport, analyse_consent_change
from .disclosure import DisclosureRiskAnalyzer, analyse_disclosure
from .likelihood import (
    LikelihoodModel,
    Scenario,
    accidental_access,
    maintenance_deletion,
    non_agreed_service,
)
from .matrix import (
    Banding,
    DEFAULT_IMPACT_BANDING,
    DEFAULT_LIKELIHOOD_BANDING,
    RiskAssessment,
    RiskLevel,
    RiskMatrix,
)
from .population import (
    PopulationAnalyzer,
    PopulationReport,
    UserOutcome,
    VectorizedPopulationAnalyzer,
    analyse_population,
)
from .pseudonym import PseudonymisationRisk, PseudonymisationRiskAnalyzer
from .reidentify import (
    ReidentificationAnnotator,
    ReidentificationFinding,
    annotate_reidentification,
)
from .report import (
    DisclosureRiskReport,
    RiskAnnotation,
    RiskEvent,
    merge_risks,
)
from .scores import (
    FieldScore,
    ScoreWeights,
    composite_score,
    score_fields,
)
from .sensitivity import (
    SensitivityCategory,
    SensitivityProfile,
    categorize,
)
from .valuerisk import (
    RecordRisk,
    ValueRiskPolicy,
    ValueRiskResult,
    render_risk_table,
    risk_sweep,
    value_risk,
)

__all__ = [
    "ConsentChangeReport",
    "analyse_consent_change",
    "DisclosureRiskAnalyzer",
    "analyse_disclosure",
    "LikelihoodModel",
    "Scenario",
    "accidental_access",
    "maintenance_deletion",
    "non_agreed_service",
    "Banding",
    "DEFAULT_IMPACT_BANDING",
    "DEFAULT_LIKELIHOOD_BANDING",
    "RiskAssessment",
    "RiskLevel",
    "RiskMatrix",
    "PopulationAnalyzer",
    "PopulationReport",
    "UserOutcome",
    "VectorizedPopulationAnalyzer",
    "analyse_population",
    "FieldScore",
    "ScoreWeights",
    "composite_score",
    "score_fields",
    "PseudonymisationRisk",
    "PseudonymisationRiskAnalyzer",
    "ReidentificationAnnotator",
    "ReidentificationFinding",
    "annotate_reidentification",
    "DisclosureRiskReport",
    "RiskAnnotation",
    "RiskEvent",
    "merge_risks",
    "SensitivityCategory",
    "SensitivityProfile",
    "categorize",
    "RecordRisk",
    "ValueRiskPolicy",
    "ValueRiskResult",
    "render_risk_table",
    "risk_sweep",
    "value_risk",
]
