"""Permutation-wordle: game engine, strategy analysis, and verification.

The hidden permutation game: each guess reveals exactly the set of
positions agreeing with the secret, correct positions lock in place, and a
fixed strategy component permutes the rest.  This package plays the game,
sweeps whole strategy families for their generating functions and average
guess counts, and verifies the counting results (Eulerian coefficients,
first-hit class counts, Lucas-number bounds) against exhaustive evaluation.
"""

from .analysis import (
    GFCoefficients,
    ScanCostError,
    ScanResult,
    average_guesses,
    average_j2_over_derangements,
    generating_function,
    scan,
)
from .engine import (
    LOOPED,
    GameTrace,
    SubgameMemo,
    feedback,
    next_guess,
    play,
    relative_derangement,
    solve_rounds,
    subgame_guesses,
)
from .perms import Perm
from .strategies import (
    NotCyclicError,
    Strategy,
    cyclic_shift,
    cyclic_shift_left_top,
    enumerate_strategies,
    from_components,
    inductive,
    mirror,
    parse_strategy,
)
from .verify import ScanCache, VerificationReport, check_sequence, verify

__version__ = "0.1.0"

__all__ = [
    "GFCoefficients",
    "GameTrace",
    "LOOPED",
    "NotCyclicError",
    "Perm",
    "ScanCache",
    "ScanCostError",
    "ScanResult",
    "Strategy",
    "SubgameMemo",
    "VerificationReport",
    "average_guesses",
    "average_j2_over_derangements",
    "check_sequence",
    "cyclic_shift",
    "cyclic_shift_left_top",
    "enumerate_strategies",
    "feedback",
    "from_components",
    "generating_function",
    "inductive",
    "mirror",
    "next_guess",
    "parse_strategy",
    "play",
    "relative_derangement",
    "scan",
    "solve_rounds",
    "subgame_guesses",
    "verify",
]
