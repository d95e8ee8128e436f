"""Outer shell: wire protocol, streaming service, batch scoring, CLI."""

from .annotations import (
    convert_coco_layout,
    corpus_from_annotations,
    dataset_from_images,
    load_annotations,
    load_corpus,
    load_predictions,
    write_annotations,
    write_corpus,
)
from .batch import run_batch
from .engine import handle_request_line, handle_request_object, score_group
from .service import run_service
from .wire import (
    ScoringRequest,
    ScoringResponse,
    WIRE_VERSION,
    dump_line,
    parse_request,
    parse_response,
    request_to_dict,
    response_to_dict,
)

__all__ = [
    "convert_coco_layout", "corpus_from_annotations", "dataset_from_images", "load_annotations",
    "load_corpus", "load_predictions", "write_annotations", "write_corpus",
    "run_batch", "handle_request_line", "handle_request_object", "score_group", "run_service",
    "ScoringRequest", "ScoringResponse", "WIRE_VERSION", "dump_line",
    "parse_request", "parse_response", "request_to_dict", "response_to_dict",
]
