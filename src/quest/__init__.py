"""quest: an embedded multi-model columnar query engine.

Tables, nested documents, and property graphs all ingest into one nested
columnar layout; queries filter and fetch across models by moving bitsets
along the schema tree, optionally accelerated by a Skip-Tree index.
"""

from .engine import ResultSet, evaluate, run_query
from .errors import (
    DeliveryError,
    IngestError,
    PlanConstraintError,
    QueryError,
    QuestError,
    SchemaError,
    StoreError,
)
from .query import parse_query
from .schema import Kind, Link, Schema, SchemaNode, expand_graph_schema, parse_schema, serialize_schema
from .store import PrimitiveColumn, SchemaData, Store, open_store, write_store

__version__ = "0.1.0"

# names whose modules a query never needs: each is imported on first use
_LAZY = {
    "ingest_csv": "ingest",
    "ingest_graph": "ingest",
    "ingest_graph_tables": "ingest",
    "ingest_json": "ingest",
    "ingest_rows": "ingest",
    "oracle_evaluate": "oracle",
    "oracle_query": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "QuestError",
    "SchemaError",
    "IngestError",
    "StoreError",
    "DeliveryError",
    "QueryError",
    "PlanConstraintError",
    "Kind",
    "Link",
    "Schema",
    "SchemaNode",
    "parse_schema",
    "serialize_schema",
    "expand_graph_schema",
    "PrimitiveColumn",
    "SchemaData",
    "Store",
    "ingest_json",
    "ingest_csv",
    "ingest_rows",
    "ingest_graph",
    "ingest_graph_tables",
    "write_store",
    "open_store",
    "parse_query",
    "evaluate",
    "run_query",
    "ResultSet",
    "oracle_evaluate",
    "oracle_query",
    "__version__",
]
