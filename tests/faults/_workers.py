"""Module-level workers for supervisor tests (importable under spawn)."""


def actions(index, payload, attempt):
    """Read a shard payload to its end: each object's name and actions.

    The actions are lists in-process and ring sections in a worker
    process; either way the result is the same plain data.
    """
    return (index, [(entry[0], [packed[:5] for packed in entry[4]])
                    for entry in payload[6]])


def boom(index, payload, attempt):
    raise RuntimeError(f"worker {index} exploded")
