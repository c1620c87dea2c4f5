"""A fixed reference task that measures how fast the host runs Python now.

The 2-core host this benchmark runs on is shared, and its speed drifts: the
same stream_forward repetition took 4.5 s and 10.2 s a few minutes apart,
and CPU time tracked wall time, so the program was slowed, not descheduled.
No statistic over one 30 s run removes a drift that slow.  So each worker
interleaves this task with its timed work (:class:`Calibration`), and run.py
multiplies each time it measured by the host speed factor
``ref_s * chunks / seconds`` of the chunks run next to that time (during and
after a CLI stage, just before and after a large-object call), or else by
the factor of the whole repetition.  Times are then reported in reference
seconds: seconds on a host where one chunk of the task takes ``ref_s``.

The task is pure Python in the style of the package (recursive generation of
restricted growth strings, string building and parsing, dict updates, a
sort) and imports nothing from it, so no change to the package can speed it
up or slow it down.
"""

import time

BELL = {8: 4140, 9: 21147}
# A chunk's time on the 2-core x86 host when it is quiet, by chunk size
REF_S = {8: 0.023, 9: 0.15}


def restricted_growth_strings(n):
    """Every restricted growth string of length n, as text."""
    out = []
    word = [0] * n
    top = [0] * n

    def rec(i):
        if i == n:
            out.append("".join(str(x + 1) for x in word))
            return
        for v in range(top[i - 1] + 2 if i else 1):
            word[i] = v
            if i + 1 < n:
                top[i] = max(top[i - 1], v) if i else v
            rec(i + 1)

    rec(0)
    return out


def chunk(n):
    """One unit of the reference task; returns a checksum."""
    strings = restricted_growth_strings(n)
    if len(strings) != BELL[n]:
        raise AssertionError(f"reference task made {len(strings)} strings, not {BELL[n]}")
    index = {s: s.count("1") + len(set(s)) for s in strings}
    strings.sort(key=lambda s: (index[s], s[::-1]))
    lines = "\n".join(strings).split("\n")
    return sum(index[s] for s in lines[::7])


class Calibration:
    """The reference task, interleaved with one repetition's timed work.

    :meth:`pause` runs between timed segments and owes ``share`` seconds of
    the task per second of work since the previous pause, so the host's speed
    is sampled all through the repetition, in proportion to the work.  A
    chunk is ``chunk(n)``.  With ``every_pause``, each pause runs at least
    one chunk, so that every segment has a sample of its own on both sides."""

    def __init__(self, n=9, share=0.5, every_pause=False):
        self.n, self.share, self.every_pause = n, share, every_pause
        self.ref_s = REF_S[n]
        self.chunks = 0
        self.seconds = 0.0
        self.owed = 0.0

    def pause(self, worked_s):
        """Run whole chunks until the task is owed no more time (at least
        one chunk in the first pause); return the seconds spent."""
        self.owed += self.share * worked_s
        t0 = time.perf_counter()
        spent = 0.0
        ran = 0
        while self.owed - spent > 0 or self.chunks == 0 or (self.every_pause and not ran):
            chunk(self.n)
            self.chunks += 1
            ran += 1
            spent = time.perf_counter() - t0
        self.owed -= spent
        self.seconds += spent
        return spent

    def mark(self):
        return self.chunks, self.seconds

    def factor(self, since=(0, 0.0)):
        """Host speed since ``mark()`` gave ``since``: 1 when a chunk took
        ``ref_s``, above 1 when faster; None when no chunk ran since."""
        chunks, seconds = self.chunks - since[0], self.seconds - since[1]
        return self.ref_s * chunks / seconds if chunks else None
