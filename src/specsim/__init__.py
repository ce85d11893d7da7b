"""Speculative simultaneous interpretation engine.

Predicts continuations of a streaming source-token utterance, keeps the
hypotheses in a probability-mass-conserving tree, commits target-language
output by mass-weighted consensus, and recovers when the speaker diverges
from every named prediction.
"""

from .engine import (OutOfOrderToken, OutputEvent, Session, catchup, deliver,
                     feed, finalize, start_session, step)
from .metrics import (EmptyEmission, SessionReport, accuracy, average_lagging,
                      compute_report)
from .ngram import EmptyCorpus, NgramModel, train_ngram
from .phrases import IdiomSpan, PhraseTable, idiom_spans, parse_phrase_table, translate
from .predictor import (Backend, NgramBackend, NoPrediction, Prediction,
                        RemoteBackend, ScriptedBackend, load_scripted_fixture,
                        prediction_set, residual_mass)
from .replay import events_to_jsonl, parse_lag_profile, replay
from .stream import (ContextDoc, EngineConfig, IndexGap, MalformedRecord,
                     MissingFinalMarker, NonMonotonicTime, TokenEvent,
                     Transcript, parse_transcript, serialize_transcript,
                     transcript_from_tokens)
from .template import (RevisionConflict, TargetTemplate, consensus, emittable,
                       refine)
from .tree import (MatchOutcome, PredictionTree, TreeNode, advance, build_tree,
                   expand, leaf_hypotheses, prune)

__version__ = "0.1.0"

# Kept for run metadata written by the benchmark; there is one kernel implementation.
KERNEL_IMPLEMENTATION = "pure"

__all__ = [
    "KERNEL_IMPLEMENTATION", "__version__",
    # stream
    "TokenEvent", "Transcript", "ContextDoc", "EngineConfig",
    "parse_transcript", "serialize_transcript", "transcript_from_tokens",
    "MalformedRecord", "NonMonotonicTime", "IndexGap",
    "MissingFinalMarker",
    # predictor
    "Prediction", "Backend", "NoPrediction", "prediction_set", "residual_mass",
    "ScriptedBackend", "NgramBackend", "RemoteBackend", "load_scripted_fixture",
    "NgramModel", "train_ngram", "EmptyCorpus",
    # phrases
    "PhraseTable", "IdiomSpan", "translate", "idiom_spans", "parse_phrase_table",
    # tree
    "PredictionTree", "TreeNode", "MatchOutcome", "build_tree", "advance",
    "expand", "prune", "leaf_hypotheses",
    # template
    "TargetTemplate", "RevisionConflict", "consensus", "refine", "emittable",
    # engine / replay
    "Session", "OutputEvent", "OutOfOrderToken", "start_session", "feed",
    "deliver", "step", "catchup", "finalize", "replay", "parse_lag_profile",
    "events_to_jsonl",
    # metrics
    "SessionReport", "EmptyEmission", "average_lagging", "accuracy",
    "compute_report",
]
