"""Figure 15: messages exchanged when adding new nodes to the prototype.

An HBA join exchanges Bloom filters with every existing MDS (~2N
messages); a G-HBA join migrates a handful of replicas within one group,
multicasts the updated IDBFA, and ships the newcomer's filter to one node
per other group.  The paper adds 1..10 nodes to its 60-node deployment and
plots cumulative messages; G-HBA saves severalfold.

Messages here are counted *on the wire* by the prototype transport.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import GHBAConfig
from repro.experiments.common import SEED, ExperimentResult
from repro.prototype.cluster import PrototypeCluster


def _config(group_size: int) -> GHBAConfig:
    return GHBAConfig(
        max_group_size=group_size,
        expected_files_per_mds=64,
        lru_capacity=16,
        lru_filter_bits=64,
        seed=SEED,
    )


def run(
    initial_nodes: int = 20,
    group_size: int = 7,
    additions: int = 10,
) -> ExperimentResult:
    """Regenerate Figure 15: cumulative join messages for both schemes.

    The paper used a 60-node deployment (M = 7); the default here is 20
    nodes for CI runtime — pass ``initial_nodes=60`` for the paper's scale.
    """
    result = ExperimentResult(
        name="fig15",
        title="Figure 15: messages when adding new nodes",
        params={
            "initial_nodes": initial_nodes,
            "group_size": group_size,
            "additions": additions,
        },
    )
    per_scheme: Dict[str, List[int]] = {}
    for scheme in ("hba", "ghba"):
        with PrototypeCluster(
            initial_nodes, _config(group_size), scheme=scheme, seed=SEED
        ) as proto:
            counts: List[int] = []
            for _ in range(additions):
                report = proto.add_node()
                counts.append(report["messages"])
            if scheme == "ghba":
                proto.check_directory()
            per_scheme[scheme] = counts
    cumulative = {"hba": 0, "ghba": 0}
    for index in range(additions):
        cumulative["hba"] += per_scheme["hba"][index]
        cumulative["ghba"] += per_scheme["ghba"][index]
        result.rows.append(
            {
                "new_nodes": index + 1,
                "hba_messages": per_scheme["hba"][index],
                "ghba_messages": per_scheme["ghba"][index],
                "hba_cumulative": cumulative["hba"],
                "ghba_cumulative": cumulative["ghba"],
            }
        )
    return result


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
