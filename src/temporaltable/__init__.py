"""temporaltable: tables with a time index, an identifying key, and an
inferred interval.

Build a table with :func:`build`, declaring which column holds time and
which columns identify each series.  Construction checks that (key, index)
pairs are unique, sorts rows past to future, and infers the common spacing
by taking the GCD of consecutive tick differences.  From there the verb
layer (filter, select, mutate, summarize, ...), the gap verbs, and the
rolling-window family all preserve those guarantees.

>>> from temporaltable import build, timepoint as tp
>>> t = build({"city": ["Oslo", "Oslo"], "year": [tp.year(2020), tp.year(2021)],
...            "snow_days": [31, 27]}, index="year", key=("city",))
>>> t.interval.shorthand()
'[1Y]'
"""

from . import timepoint
from .adapters import (
    IndexAdapter,
    get_adapter,
    register_index_adapter,
    registered_adapters,
    unregister_index_adapter,
)
from .aggregates import Aggregate
from .display import render_summary
from .errors import (
    ConversionError,
    DuplicateIndexError,
    GapError,
    IngestError,
    MissingIndexError,
    ParseError,
    PreconditionError,
    RegistrationError,
    SchemaError,
    TemporalTableError,
    TypedResultError,
    UnsupportedOperationError,
    UsageError,
    ValidityError,
)
from .gaps import GapReport, count_gaps, fill_gaps, has_gaps, require_gapless, scan_gaps
from .granularity import Granularity
from .ingest import IngestConfig, ingest, table_to_csv
from .interval import Interval
from .rolling import (
    Window,
    pslide,
    roll_by_key,
    slide,
    slide2,
    slide_bool,
    slide_int,
    slide_real,
    slide_text,
    stretch,
    stretch_bool,
    stretch_int,
    stretch_real,
    stretch_text,
    tile,
    tile_bool,
    tile_int,
    tile_real,
    tile_text,
)
from .table import (
    Column,
    DuplicateReport,
    TemporalTable,
    build,
    duplicates,
    key_groups,
    validate_table,
)
from .timepoint import TimePoint, floor_to, guess_granularity, parse_timepoint
from .verbs import (
    VerbOutcome,
    arrange,
    filter,
    filter_index,
    gather,
    group_by,
    group_by_key,
    index_by,
    join,
    mutate,
    select,
    spread,
    summarize,
    transmute,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "Column",
    "ConversionError",
    "DuplicateIndexError",
    "DuplicateReport",
    "GapError",
    "GapReport",
    "Granularity",
    "IndexAdapter",
    "IngestConfig",
    "IngestError",
    "Interval",
    "MissingIndexError",
    "ParseError",
    "PreconditionError",
    "RegistrationError",
    "SchemaError",
    "TemporalTable",
    "TemporalTableError",
    "TimePoint",
    "TypedResultError",
    "UnsupportedOperationError",
    "UsageError",
    "ValidityError",
    "VerbOutcome",
    "Window",
    "arrange",
    "build",
    "count_gaps",
    "duplicates",
    "fill_gaps",
    "filter",
    "filter_index",
    "floor_to",
    "gather",
    "get_adapter",
    "group_by",
    "group_by_key",
    "guess_granularity",
    "has_gaps",
    "index_by",
    "ingest",
    "join",
    "key_groups",
    "mutate",
    "parse_timepoint",
    "pslide",
    "register_index_adapter",
    "registered_adapters",
    "render_summary",
    "require_gapless",
    "roll_by_key",
    "scan_gaps",
    "select",
    "slide",
    "slide2",
    "slide_bool",
    "slide_int",
    "slide_real",
    "slide_text",
    "spread",
    "stretch",
    "stretch_bool",
    "stretch_int",
    "stretch_real",
    "stretch_text",
    "summarize",
    "table_to_csv",
    "tile",
    "tile_bool",
    "tile_int",
    "tile_real",
    "tile_text",
    "timepoint",
    "transmute",
    "unregister_index_adapter",
    "validate_table",
]
