"""The tape tasks' latent draws, written out task by task as plain rules.

``draw(task, stream, length_range)`` is what one ``reset()`` of
``make_env(task, seed, length_range)`` draws from its seed stream: the
input length, then the tape (for ReversedAddition one row of base-3
digits per addend), and the target the task's rule makes of it.
"""

from urex.envs import TaskId

SYMBOLS = 5  # tape symbols of the 1-D tasks
DIGITS = 3  # ReversedAddition's base


def _tape(stream, length, base=SYMBOLS):
    return tuple(int(s) for s in stream.integers(0, base, size=length))


def _digit_sum(a_digits, b_digits):
    """Little-endian base-3 digits of the sum of two little-endian numbers."""
    digits = []
    carry = 0
    for a, b in zip(a_digits, b_digits):
        s = a + b + carry
        digits.append(s % DIGITS)
        carry = s // DIGITS
    if carry:
        digits.append(carry)
    return tuple(digits)


def draw(task, stream, length_range):
    """The next latent of ``task`` from ``stream``: (grid as a tuple of row
    tuples, target, input length, step limit)."""
    lo, hi = length_range
    length = int(stream.integers(lo, hi + 1))
    if task is TaskId.DUPLICATED_INPUT:
        # each hidden symbol written twice; an odd length loses its last cell
        symbols = stream.integers(0, SYMBOLS, size=max(1, length // 2))
        tape = tuple(int(s) for s in symbols for _ in range(2))
        grid, target = (tape,), tape[::2]
    elif task is TaskId.REVERSED_ADDITION:
        grid = (_tape(stream, length, DIGITS), _tape(stream, length, DIGITS))
        target = _digit_sum(*grid)
    else:
        tape = _tape(stream, length)
        grid = (tape,)
        target = {TaskId.COPY: tape,
                  TaskId.REPEAT_COPY: tape + tape[::-1] + tape,
                  TaskId.REVERSE: tape[::-1]}[task]
    width = len(grid[0])
    return grid, target, width, 4 * width + 4
