"""Block shapes shared by the test modules."""


def compositions(n):
    """Every ordered tuple of positive integers summing to ``n``, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail
