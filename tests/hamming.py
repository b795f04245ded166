"""Hamming distance, the independent reference that tests compare the
codec's distances against."""


def hamming(a: str, b: str) -> int:
    """Number of positions where two equal-length strings differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))
