"""CLI for the TCP substrate.

``serve``
    Run one MDS as this OS process: register on the port map, start the
    node thread, serve until a STOP message arrives over the wire.
    This is what :class:`~repro.net.supervisor.ProcessSupervisor`
    launches per node::

        python -m repro.net serve --node-id 0 \\
            --portmap-file portmap.json --config-file config.json

The wire's wall-clock cost is measured by the layered benchmark:
``python -m bench run --workload wire_mixed`` launches two of these.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_serve(args) -> int:
    from repro.core.checkpoint import restore_server
    from repro.net.supervisor import config_from_dict
    from repro.net.tcp import PortMap, TcpTransport
    from repro.prototype.node import MDSNode

    portmap = PortMap.from_json(Path(args.portmap_file).read_text())
    if args.config_file:
        config = config_from_dict(json.loads(Path(args.config_file).read_text()))
    else:
        from repro.core.config import GHBAConfig

        config = GHBAConfig()
    server = None
    if args.checkpoint:
        entry = json.loads(Path(args.checkpoint).read_text())
        server = restore_server(entry, config)
    transport = TcpTransport(portmap, default_timeout_s=args.timeout_s)
    node = MDSNode(args.node_id, config, transport, server=server)
    node.start()
    print(f"READY {args.node_id}", flush=True)
    try:
        node.join()  # runs until a STOP frame arrives
    except KeyboardInterrupt:
        pass
    finally:
        transport.deregister(args.node_id)
        transport.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="TCP transport processes for the G-HBA prototype.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one MDS as this process")
    serve.add_argument("--node-id", type=int, required=True)
    serve.add_argument(
        "--portmap-file",
        required=True,
        help="JSON {node_id: [host, port]} written by the supervisor",
    )
    serve.add_argument(
        "--config-file", default=None, help="GHBAConfig fields as JSON"
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        help="snapshot_server document to restore instead of a fresh store",
    )
    serve.add_argument("--timeout-s", type=float, default=30.0)
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
