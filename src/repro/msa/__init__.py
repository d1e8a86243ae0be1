"""MSA substrate: k-mer homology search, alignment, libraries, features."""

from .align import (
    SequenceAlignment,
    global_align,
    global_align_many,
    pairwise_identity,
)
from .databases import (
    LibraryEntry,
    LibrarySuite,
    SequenceLibrary,
    build_library,
    build_suite,
)
from .diskindex import (
    attach_suite_index,
    build_disk_index,
    ensure_disk_index,
    open_disk_index,
)
from .features import FeatureBundle, FeatureGenConfig, generate_features
from .kmer import KmerIndex, kmer_codes
from .search import (
    Hit,
    QueryCodeMemo,
    SearchResult,
    search_library,
    search_suite,
)

__all__ = [
    "SequenceAlignment",
    "global_align",
    "global_align_many",
    "pairwise_identity",
    "LibraryEntry",
    "LibrarySuite",
    "SequenceLibrary",
    "build_library",
    "build_suite",
    "FeatureBundle",
    "FeatureGenConfig",
    "generate_features",
    "KmerIndex",
    "kmer_codes",
    "build_disk_index",
    "open_disk_index",
    "ensure_disk_index",
    "attach_suite_index",
    "Hit",
    "QueryCodeMemo",
    "SearchResult",
    "search_library",
    "search_suite",
]
