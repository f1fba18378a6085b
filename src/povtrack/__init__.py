"""Psychological point-of-view tracking for third-person narrative.

The package interprets a stream of annotated sentences, paragraph
breaks, and scene breaks, deciding for each sentence whether it is
objective or presents a character's consciousness, and whose.  It ships
a deterministic tracking engine, a JSON corpus loader, an evaluation
harness with primary/secondary error accounting, and a tracing CLI.
"""

from .model import (
    Characters,
    Clause,
    Context,
    DEFAULT_REGISTRY,
    FeatureSet,
    INITIAL_CONTEXT,
    InputItem,
    Interpretation,
    NOBODY,
    ParagraphBreak,
    ParseError,
    PovTrackError,
    Pse,
    PseCategory,
    RegistryError,
    SceneBreak,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    VerbFeatures,
)
from .situations import new_context, new_context_after_break
from .engine import (
    Engine,
    InterpretationDetail,
    SignificancePolicy,
    TrackStep,
)
from .corpus import (
    Document,
    dumps_document,
    load_document,
    load_registry,
    parse_document,
    parse_registry,
    validate_gold,
)
from .evaluation import (
    EvalReport,
    PovOperation,
    evaluate,
    is_simple_quoted_speech,
)
from .trace import interpretation_line, render_step, render_trace

__version__ = "0.1.0"

__all__ = [
    "Characters", "Clause", "Context", "DEFAULT_REGISTRY", "Document",
    "Engine", "EvalReport", "FeatureSet", "INITIAL_CONTEXT", "InputItem",
    "Interpretation", "InterpretationDetail", "NOBODY", "ParagraphBreak",
    "ParseError", "PovOperation", "PovTrackError", "Pse", "PseCategory",
    "RegistryError", "SceneBreak", "Sentence", "SignificancePolicy",
    "SoaType", "StateOfAffairs", "TextSituation",
    "TrackStep", "ValidationError", "VerbFeatures",
    "dumps_document", "evaluate", "interpretation_line",
    "is_simple_quoted_speech", "load_document", "load_registry",
    "new_context", "new_context_after_break", "parse_document",
    "parse_registry", "render_step", "render_trace",
    "validate_gold",
]
