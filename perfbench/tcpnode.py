"""A PIER node process that also reports its transport's traffic counters.

Takes the arguments of ``python -m repro.node`` and runs the same node, with
one gateway RPC added: ``perfbench_traffic`` answers with the node
transport's byte and frame counters.  The ``tcp_join`` workload starts its
cluster's nodes through this script, so it can measure the traffic a query
causes on a real cluster without any change under ``src/``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

from repro import node as pier_node

#: The RPC op that returns the counters.
TRAFFIC_OP = "perfbench_traffic"

_dispatch_rpc = pier_node.PierNode._dispatch_rpc


def dispatch_rpc(node: pier_node.PierNode, op: str, frame: dict,
                 writer: Any) -> Dict[str, Any]:
    if op == TRAFFIC_OP:
        transport = node.transport
        return {"bytes_received": transport.bytes_received,
                "bytes_sent": transport.bytes_sent,
                "frames_received": transport.frames_received}
    return _dispatch_rpc(node, op, frame, writer)


pier_node.PierNode._dispatch_rpc = dispatch_rpc  # type: ignore[method-assign]

if __name__ == "__main__":
    sys.exit(pier_node.main())
