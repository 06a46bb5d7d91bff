"""Coherence protocol backends, discovered through the plugin registry.

Importing this package imports every backend module; each registers
itself with :func:`repro.protocols.registry.register_protocol` as a side
effect, so the registry below is complete the moment the package is
importable.  Adding a backend is a one-file change: write the module,
decorate the class with its :class:`~repro.protocols.registry.ProtocolInfo`
capabilities, and import it here.  Query the registry for names,
labels and comparison sets (:func:`protocol_names`, :func:`get_info`,
:func:`default_comparison_set`, ...).
"""

from repro.protocols.base import CoherenceProtocol
from repro.protocols.invariants import InvariantAudit
from repro.protocols.registry import (
    ProtocolInfo,
    app_comparison_set,
    default_comparison_set,
    get_info,
    iter_protocols,
    protocol_names,
    protocols_with,
    register_protocol,
    registry_markdown_table,
    registry_table,
    sanitize_comparison_set,
    unknown_protocol_error,
)

# Importing a backend module registers it; registration order is
# presentation order (MESI first: it is the figures' baseline column).
from repro.protocols.mesi import MesiProtocol
from repro.protocols.denovosync0 import DeNovoSync0Protocol
from repro.protocols.denovosync import DeNovoSyncProtocol
from repro.protocols.signatures import DeNovoSyncSigProtocol
from repro.protocols.mesi_rfo import MesiRfoProtocol
from repro.protocols.neat import NeatProtocol
from repro.protocols.syncron import SynCronProtocol


def make_protocol(name: str, *args, **kwargs) -> CoherenceProtocol:
    """Instantiate a protocol by its registered paper name.

    With ``config.invariant_level`` ``full`` the protocol comes wrapped
    in an :class:`InvariantAudit`; with ``off`` it is returned bare.
    Unknown names raise :class:`ValueError` listing the registered names
    plus near-miss suggestions (``mesi`` -> ``MESI``).
    """
    protocol = get_info(name).cls(*args, **kwargs)
    if protocol.config.invariant_level == "off":
        return protocol
    return InvariantAudit(protocol)


__all__ = [
    "CoherenceProtocol",
    "MesiProtocol",
    "DeNovoSync0Protocol",
    "DeNovoSyncProtocol",
    "DeNovoSyncSigProtocol",
    "MesiRfoProtocol",
    "NeatProtocol",
    "SynCronProtocol",
    "make_protocol",
    "ProtocolInfo",
    "register_protocol",
    "iter_protocols",
    "protocol_names",
    "get_info",
    "protocols_with",
    "unknown_protocol_error",
    "default_comparison_set",
    "app_comparison_set",
    "sanitize_comparison_set",
    "registry_table",
    "registry_markdown_table",
]
