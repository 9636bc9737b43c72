"""Gapped k-deck toolkit.

A gapped deck is the multiset of subsequences of a binary string whose chosen
indices are pairwise at least s apart (s=2 is the default "gapped" case; s=1
recovers the classical deck). The package counts gapped subsequence
multiplicities, decides deck-equality relations, generates padded Morse-Thue
confusable pairs, exhaustively searches for minimal confusable lengths, checks
wildcard-pattern equivalences, and evaluates upper-bound formulas.
"""

from gapdeck.bounds import (
    BoundReport,
    best_bound,
    closed_form_bound,
    corollary_rec_bound,
    dudik_su_bound,
    kappa,
    padded_bound,
    s_padded_bound,
    summary_table,
    table2,
    ungapped_reference_bound,
)
from gapdeck.constructions import (
    ConstructionPair,
    classical_mt,
    concat_swap,
    exact_deck_family,
    padded_mt,
    padded_mt_trimmed,
    s_padded_mt,
)
from gapdeck.deck import (
    DEFAULT_FINGERPRINT_PRIMES,
    DeckSignature,
    Eq7Report,
    ExactOverflowError,
    GapParams,
    count_gapped,
    deck_equal,
    enumerate_deck,
    exact_deck_equal,
    fingerprint,
    punctured_signature,
    signature,
    verify_eq7,
)
from gapdeck.search import (
    CollisionReport,
    find_collision,
    search_G,
    search_G_star,
    search_SU,
    search_exact_D,
)
from gapdeck.strings import (
    Puncture,
    complement,
    format_binary,
    parse_binary,
    parse_wildcard,
    puncture,
    reverse,
)
from gapdeck.wildcard import (
    Lemma3Instance,
    Lemma3Report,
    USetSpec,
    count_wildcard,
    enumerate_U,
    lemma3_check,
    pad_zero,
    substitute,
    u_equiv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CollisionReport",
    "ConstructionPair",
    "DEFAULT_FINGERPRINT_PRIMES",
    "DeckSignature",
    "Eq7Report",
    "ExactOverflowError",
    "GapParams",
    "Lemma3Instance",
    "Lemma3Report",
    "Puncture",
    "USetSpec",
    "best_bound",
    "classical_mt",
    "closed_form_bound",
    "complement",
    "concat_swap",
    "corollary_rec_bound",
    "count_gapped",
    "count_wildcard",
    "deck_equal",
    "dudik_su_bound",
    "enumerate_U",
    "enumerate_deck",
    "exact_deck_equal",
    "exact_deck_family",
    "find_collision",
    "fingerprint",
    "format_binary",
    "kappa",
    "lemma3_check",
    "pad_zero",
    "padded_bound",
    "padded_mt",
    "padded_mt_trimmed",
    "parse_binary",
    "parse_wildcard",
    "puncture",
    "punctured_signature",
    "reverse",
    "s_padded_bound",
    "s_padded_mt",
    "search_G",
    "search_G_star",
    "search_SU",
    "search_exact_D",
    "signature",
    "substitute",
    "summary_table",
    "table2",
    "u_equiv",
    "ungapped_reference_bound",
    "verify_eq7",
]
