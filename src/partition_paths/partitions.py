"""Set partitions in canonical word form (restricted growth strings).

A partition of [n] is stored as the word whose i-th letter is the index of
the block containing i, blocks being numbered in order of their minima.
These words are exactly the restricted growth strings: the first letter is 1
and every letter exceeds the maximum of the letters before it by at most one.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import length_hint
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import InvalidObjectError, require_size


class SetPartition(tuple):
    """An immutable set partition of [n] in canonical word form: the value is
    the word itself, a tuple of ints, so it equals and hashes as its word, and
    indexing, slicing and ordering are those of a tuple; ``word`` returns a
    plain tuple copy.

    The empty word represents the partition of the empty set; it is a valid
    value but lies outside the domain of the path bijections.  The
    constructor checks restricted growth, naming the first fault; each letter
    must be a plain int (not a bool or another int subclass, whose str is no word).
    """

    __slots__ = ()

    def __new__(cls, word=()):
        try:
            word = tuple(word)
        except TypeError:
            raise InvalidObjectError(f"a word must be iterable, got {word!r}") from None
        mx = 0
        rest = iter(word)
        for c in rest:
            if type(c) is not int or not 0 < c <= mx + 1:
                # c is letter i (from 1), followed by length_hint(rest) others
                i = len(word) - length_hint(rest)
                if type(c) is not int or c < 1:
                    raise InvalidObjectError(
                        f"letter at position {i} is not a positive integer: {c!r}"
                    )
                raise InvalidObjectError(
                    f"restricted-growth violation at position {i}: "
                    f"{c} exceeds previous maximum {mx} by more than one"
                )
            if c > mx:
                mx = c
        return tuple.__new__(cls, word)

    # _trusted(word) wraps a tuple known to be a restricted growth string
    # without checking it again, for generators and maps that build only such
    # words; bound directly, it costs no Python frame per object
    _trusted = classmethod(tuple.__new__)

    word = property(tuple)

    @property
    def n(self) -> int:
        """Size of the ground set."""
        return len(self)

    @property
    def block_count(self) -> int:
        return max(self) if self else 0

    def __str__(self):
        return ("%d," * len(self) % self)[:-1]

    def __reduce__(self):
        # pickle protocols 0 and 1 would otherwise skip the checking __new__
        return type(self), (tuple(self),)

    def __repr__(self):
        return f"SetPartition({self.word!r})"


def parse_partition(text: str) -> SetPartition:
    """Parse a partition word.

    Accepts comma-separated decimal block indices, or a contiguous digit
    string when every index is a single digit (so "1,1,2" and "112" name the
    same partition).  The empty string parses to the empty partition.  A
    syntax error anywhere is reported before the first growth error.
    """
    return SetPartition(_letters(text))


def _letters(text: str) -> Iterator[int]:
    """The letters of a partition word, its syntax checked but not its growth."""
    if not isinstance(text, str):
        raise InvalidObjectError(f"a partition must be parsed from a str, got {text!r}")
    text = text.strip()
    if not text or text.isdecimal():
        return map(int, text)
    if "," not in text:
        raise InvalidObjectError(f"syntax error in partition: {text!r}")
    tokens = text.split(",")
    if "" in tokens or not "".join(tokens).isdecimal():
        tokens = [token.strip() for token in tokens]
        for i, token in enumerate(tokens):
            if not token.isdecimal():
                raise InvalidObjectError(
                    f"syntax error in partition at token {i + 1}: {token!r}"
                )
    return map(int, tokens)


def generate_partitions(
    n: int, avoiding: Optional[SetPartition] = None
) -> Iterator[SetPartition]:
    """Yield every set partition of [n] exactly once, in lexicographic order
    of its canonical word; with ``avoiding``, a pattern word, only those that
    avoid it: a word of :data:`FAST_PATTERNS` prunes the search by its rule,
    and any other word filters it by :func:`avoids`.  Any n is taken;
    the CLI's list and count hold n to their exhaustive limit."""
    require_size(n, "partition size")
    if avoiding is not None and not isinstance(avoiding, SetPartition):
        raise InvalidObjectError(f"avoiding must be a SetPartition, got {avoiding!r}")
    rules = {entry.word: entry for entry in FAST_PATTERNS.values()}
    grown = _grow(n, rules.get(avoiding, _NO_PATTERN))
    if avoiding is not None and avoiding not in rules:
        grown = (p for p in grown if avoids(p, avoiding))
    yield from grown


def _grow(n: int, rule: "Pattern") -> Iterator[SetPartition]:
    """The partitions of [n], in order, in which no letter completes the
    pattern of ``rule``.

    Iterative depth-first search over prefixes.  Avoidance is closed under
    prefixes, so a letter is dropped as soon as the rule's step says it
    completes an occurrence.  Every prefix kept extends to an avoider of [n]
    (a letter that is not below the running maximum never completes one), so
    no work is spent on partitions that are not emitted.  Words are built
    only as restricted growth strings and are not validated again.
    """
    leaf = SetPartition._trusted
    step = rule.step
    if n <= 1:
        yield leaf((1,) * n)
        return
    # (prefix, its maximum, the rule's state after it); siblings share the
    # state, which no step mutates.  Children are pushed in decreasing order
    # so that they pop in increasing order, and the last letter is chosen
    # without a push
    stack = [((1,), 1, rule.start)]
    while stack:
        word, mx, state = stack.pop()
        if len(word) == n - 1:
            for c in range(1, mx):
                if step(state, c, mx) is not None:
                    yield leaf(word + (c,))
            yield leaf(word + (mx,))
            yield leaf(word + (mx + 1,))
            continue
        stack.append((word + (mx + 1,), mx + 1, state))
        stack.append((word + (mx,), mx, state))
        for c in range(mx - 1, 0, -1):
            after = step(state, c, mx)
            if after is not None:
                stack.append((word + (c,), mx, after))


@lru_cache(maxsize=128)
def _pattern_facts(pat: tuple) -> tuple:
    """What :func:`find_pattern` needs to know of a nonempty pattern word,
    computed once per pattern: whether each letter is the first occurrence of
    its value, how many indices later its value occurs for the last time, and
    max(pat) + 1."""
    first = tuple(t > top for t, top in zip(pat, accumulate(pat, max, initial=0)))
    last = dict(zip(pat, range(len(pat))))
    gap = tuple(last[t] - i for i, t in enumerate(pat))
    return first, gap, max(pat) + 1


def find_pattern(p: SetPartition, pattern: SetPartition) -> Optional[tuple]:
    """Return 0-based positions of one occurrence of ``pattern`` in ``p``,
    or None if there is none.

    An occurrence is a subsequence s with s_a = s_b exactly when the pattern
    letters at a and b are equal and s_a < s_b exactly when they are in that
    order.  This is the containment oracle: an exhaustive depth-first search
    over positions in increasing order, pruned on remaining length and run
    without recursion, so the occurrence returned is the lexicographically
    first and a pattern of any length is searched.  Three facts cut the work
    per candidate without skipping any occurrence:

    * a pattern letter already matched can only match positions holding
      exactly its value, so the search jumps to the next one with
      ``tuple.index`` (the last position of each value says whether there is
      one);
    * the pattern is a restricted growth string, so at the first occurrence
      of a letter t the letters 1 .. t-1 are matched, with increasing
      values, and no larger letter is; a value c is consistent exactly when
      it exceeds the value matched to t-1;
    * a pattern letter that recurs for the last time g indices later needs
      its matched value to occur again at a position at least j + g, with j
      the candidate position, so a candidate whose value last occurs before
      j + g is skipped: no occurrence could be completed from it.
    """
    n, k = len(p), len(pattern)
    if k == 0:
        return ()
    if k > n:
        return None
    first, gap, letters = _pattern_facts(pattern)
    last = dict(zip(p, range(n)))  # value -> its last position
    value = [0] * letters  # pattern letter -> matched value; value[0] = 0
    pos = [0] * k
    i = j = 0  # pattern index, next position of p to try for it
    while True:
        t = pattern[i]
        stop = n - k + i + 1
        if first[i]:
            low = value[t - 1]
            while j < stop and p[j] <= low:
                j += 1
        else:
            v = value[t]
            j = p.index(v, j) if last[v] >= j else stop
        if j >= stop:
            if not i:
                return None
            i -= 1
            j = pos[i] + 1
        elif last[p[j]] < j + gap[i]:  # its value cannot recur in time
            j += 1
        else:
            value[t] = p[j]
            pos[i] = j
            i += 1
            if i == k:
                return tuple(pos)
            j += 1


def avoids(p: SetPartition, pattern: SetPartition) -> bool:
    return find_pattern(p, pattern) is None


@dataclass(frozen=True)
class Decomposition:
    """Factorization of a canonical word as 1 w1 2 w2 ... k wk.

    The first occurrences of 1..k are the left-to-right maxima of the word;
    ``words[i-1]`` collects the letters (all at most i) strictly between the
    first occurrence of i and the first occurrence of i+1.
    ``late_occurrences[i-1]`` counts the occurrences of the letter i that lie
    strictly after the first occurrence of i+1; these counts set the ascent
    heights in the path encoding.
    """

    block_count: int
    maxima_positions: tuple  # 0-based position of the first occurrence of each label
    words: tuple
    late_occurrences: tuple

    def reassemble(self) -> SetPartition:
        letters = []
        for i, w in enumerate(self.words, start=1):
            letters.append(i)
            letters.extend(w)
        return SetPartition(letters)


def decompose(p: SetPartition) -> Decomposition:
    """Compute the unique left-to-right-maxima factorization of a nonempty
    partition word.

    One pass: a letter c is a late occurrence exactly when it lies below the
    running maximum, because that maximum is at least c + 1 only after the
    first occurrence of c + 1.
    """
    if not isinstance(p, SetPartition):
        raise InvalidObjectError(f"decompose expects a SetPartition, got {p!r}")
    if not p:
        raise InvalidObjectError("cannot decompose the empty partition")
    first = []
    late = [0] * p.block_count
    mx = 0
    for i, c in enumerate(p):
        if c > mx:
            mx = c
            first.append(i)
        elif c < mx:
            late[c - 1] += 1
    ends = first[1:] + [len(p)]
    words = tuple(p[a + 1 : b] for a, b in zip(first, ends))
    return Decomposition(len(first), tuple(first), words, tuple(late[:-1]))


def _step_12312(below: tuple, c: int, mx: int) -> Optional[tuple]:
    """The 12312 rule.  An occurrence of 12312 ends at a letter y after a
    letter x below the running maximum m, with x < y < m (the first
    occurrences of x, y and m precede that x), so y completes one exactly
    when it lies inside the interval (x, m) of such an earlier x.

    The state is a linked stack (x, m, rest) of those intervals on a bottom
    entry (0, 0, None), with x increasing toward the top.  The entries with
    x >= c are dropped, as the interval (c, mx) that c pushes covers theirs;
    the top, whose m is then the largest, alone can hold c.  Each entry is
    pushed and dropped once, so a word costs linear time.
    """
    while below[0] >= c:
        below = below[2]
    if c < below[1]:
        return None
    return (c, mx, below)


def _step_12321(prev: int, c: int, mx: int) -> Optional[int]:
    """The 12321 rule.  The letters below the running maximum must be weakly
    increasing: a descent a > b among them completes b a m a b, with m the
    running maximum at a.  The state is the last such letter, from 0."""
    return None if c < prev else c


def avoids_12312_fast(p: SetPartition) -> bool:
    """Decide 12312-avoidance in linear time, by :func:`_step_12312`."""
    return FAST_PATTERNS["12312"].avoids_fast(p)


def avoids_12321_fast(p: SetPartition) -> bool:
    """Decide 12321-avoidance in linear time, by :func:`_step_12321`."""
    return FAST_PATTERNS["12321"].avoids_fast(p)


class Pattern(NamedTuple):
    """A pattern of the bijections: its word and its rule (``start``, ``step``).

    Either pattern is completed only by a letter below the running maximum.
    ``step(state, c, mx)`` takes the state after the earlier letters
    (``start`` before the first) and such a letter c, below the running
    maximum mx, and returns the state after c, or None when c completes an
    occurrence; it never mutates the state.  :meth:`avoids_fast` folds the
    rule over a word, as ``bijections._encode`` does in the encoding pass,
    and :func:`generate_partitions` prunes by it letter by letter: they agree.
    """

    word: SetPartition
    start: object
    step: Callable[[object, int, int], object]

    def avoids_fast(self, p: SetPartition) -> bool:
        """Decide avoidance in one pass, by folding the rule over ``p``."""
        step, state = self.step, self.start
        mx = 0
        for c in p:
            if c > mx:
                mx = c
            elif c < mx:
                state = step(state, c, mx)
                if state is None:
                    return False
        return True


FAST_PATTERNS = {
    "12312": Pattern(SetPartition((1, 2, 3, 1, 2)), (0, 0, None), _step_12312),
    "12321": Pattern(SetPartition((1, 2, 3, 2, 1)), 0, _step_12321),
}
_NO_PATTERN = Pattern(None, (), lambda state, c, mx: state)  # keeps every letter


def is_irreducible(p: SetPartition) -> bool:
    """True if no m in [n-1] splits the partition into a partition of [m]
    and a partition of {m+1, ..., n}.

    One pass: the word splits after position m exactly when every label of
    the first m letters has its last occurrence among them.
    """
    if not p:
        raise InvalidObjectError("irreducibility is undefined for the empty partition")
    last = dict(zip(p, range(len(p))))
    reach = 0
    for m, c in enumerate(p[:-1], 1):
        if last[c] > reach:
            reach = last[c]
        if reach < m:
            return False
    return True


def is_irreducible_char(p: SetPartition) -> bool:
    """Label-based irreducibility test: every block label i >= 2 must be
    followed, somewhere after its first occurrence, by a smaller letter.

    One pass over a stack of the labels still waiting for a smaller letter;
    they were opened in increasing order, so a letter settles the top ones.
    Agrees with :func:`is_irreducible` on every partition (checked
    exhaustively in the test suite).
    """
    if not p:
        raise InvalidObjectError("irreducibility is undefined for the empty partition")
    waiting = []
    mx = 1
    for c in p:
        while waiting and waiting[-1] > c:
            waiting.pop()
        if c > mx:
            mx = c
            waiting.append(c)
    return not waiting
