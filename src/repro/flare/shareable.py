"""Shareable: the task/result envelope exchanged between server and clients."""

from __future__ import annotations

from typing import Any

from .constants import ReservedKey, ReturnCode
from .dxo import DXO

__all__ = ["Shareable", "make_reply", "from_dxo", "to_dxo"]


class Shareable(dict):
    """A dict with well-known header helpers (NVFlare's task envelope).

    The DXO payload, when present, lives under the ``"DXO"`` key: the
    :class:`DXO` itself on a Shareable built locally (:func:`from_dxo`),
    which the transport encodes straight into the message envelope, and the
    received buffer on one that came off the wire.
    """

    def set_header(self, key: str, value: Any) -> None:
        self[key] = value

    def get_header(self, key: str, default: Any = None) -> Any:
        return self.get(key, default)

    @property
    def return_code(self) -> str:
        return self.get(ReservedKey.RETURN_CODE, ReturnCode.OK)

    def set_return_code(self, code: str) -> None:
        self[ReservedKey.RETURN_CODE] = code

    @property
    def task_name(self) -> str | None:
        return self.get(ReservedKey.TASK_NAME)

    @property
    def current_round(self) -> int | None:
        return self.get(ReservedKey.ROUND_NUMBER)


def from_dxo(dxo: DXO) -> Shareable:
    """Wrap a DXO in a fresh Shareable.

    The DXO is not encoded here: the transport encodes it when the
    Shareable is sent (:class:`~repro.flare.transport.EncodedShareable`),
    so a change to its arrays before then is what goes on the wire.
    """
    shareable = Shareable()
    shareable["DXO"] = dxo
    return shareable


def to_dxo(shareable: Shareable) -> DXO:
    """Extract and decode the DXO payload of a Shareable.

    Either way the arrays are read-only: views of the received buffer, or of
    a local DXO's own arrays (:meth:`DXO.read_only_view`).
    """
    payload = shareable.get("DXO")
    if payload is None:
        raise ValueError("shareable carries no DXO payload")
    if isinstance(payload, DXO):
        return payload.read_only_view()
    return DXO.from_bytes(payload)


def make_reply(code: str) -> Shareable:
    """A payload-less reply carrying only a return code."""
    reply = Shareable()
    reply.set_return_code(code)
    return reply
