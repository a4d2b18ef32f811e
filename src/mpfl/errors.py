"""Exception hierarchy shared by the whole package."""


class MpflError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(MpflError):
    """Invalid configuration value, shape mismatch, or bad argument."""


class LayoutError(MpflError):
    """A mask, score vector, or parameter set does not match the layer layout."""


class ProtocolError(MpflError):
    """A wire frame or payload could not be decoded."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class TransportError(MpflError):
    """A transport session failed (disconnect, timeout, or a connection that is not the node's)."""


class NodeError(MpflError):
    """A node failed during a round; the node's own exception is the cause."""

    def __init__(self, node_id: int, round_idx: int, cause: BaseException):
        super().__init__(
            f"node {node_id} failed in round {round_idx}: {type(cause).__name__}: {cause}"
        )
        self.node_id = node_id
        self.round_idx = round_idx


class DataError(MpflError):
    """A dataset source could not be parsed or is internally inconsistent."""


class ConstraintError(MpflError):
    """A runtime protocol constraint was violated (e.g. keep budget below floor)."""
