"""A simulated peer-to-peer network.

The paper's architecture (Fig. 2) needs three kinds of communication:

1. blockchain gossip — transactions and blocks propagate to every validator,
   and each light peer gets the headers plus proofs of its own operations;
2. contract notifications — peers learn that shared data they participate in
   was changed;
3. pairwise data channels — the actual shared data ("send updated data" /
   "request updated data") travels *only* between the two sharing peers,
   never through the chain or a third party.

Everything is simulated deterministically: a seeded transport applies
configurable latency and drop, and every delivered message is recorded so the
exposure benchmark (§V claim) can audit exactly which peer saw which data.

* :mod:`repro.network.message` — message envelopes.
* :mod:`repro.network.transport` — the seeded, logged transport.
* :mod:`repro.network.node` — blockchain nodes (validators) holding chain replicas.
* :mod:`repro.network.light` — light peers: a header chain and inclusion proofs.
* :mod:`repro.network.gossip` — transaction/block propagation.
* :mod:`repro.network.channels` — pairwise shared-data channels.
* :mod:`repro.network.simulator` — assembles clock, transport and nodes.
"""

from repro.network.message import Message
from repro.network.transport import SimTransport
from repro.network.node import BlockchainNode
from repro.network.light import LightNode
from repro.network.gossip import GossipProtocol
from repro.network.channels import DataChannel, ChannelRegistry
from repro.network.simulator import NetworkSimulator

__all__ = [
    "Message",
    "SimTransport",
    "BlockchainNode",
    "LightNode",
    "GossipProtocol",
    "DataChannel",
    "ChannelRegistry",
    "NetworkSimulator",
]
