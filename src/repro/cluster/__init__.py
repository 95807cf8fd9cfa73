"""``repro.cluster`` — federated ``repro serve`` replicas.

Three pieces turn independent serving replicas into one cluster, all built
on the existing length-prefixed wire (:mod:`repro.service.wire`):

1. **Membership** (:mod:`repro.cluster.membership`): a seed-list +
   push–pull gossip protocol.  Replicas started with ``repro serve --join
   host:port`` exchange full member tables on a timer; entries carry each
   member's heartbeat (conflict resolution), registered workers, and load,
   and age out when their heartbeat stalls (suspicion timeout).
2. **Cache peering** (:mod:`repro.cluster.peering` +
   :class:`~repro.cluster.coordinator.ClusterCoordinator`): on a local TTL
   cache miss the service probes its peers by structural request
   fingerprint before computing; payloads are digest-verified bit-identical
   and a peer mid-computation holds the probe (single-flight, now
   cluster-wide).
3. **Cluster scheduling** (:mod:`repro.cluster.executor`): workers
   ``--register`` with *one* replica and gossip propagates them to all;
   :class:`ClusterWorkers` ranks the cluster-wide fleet by owning member
   load, and a :class:`~repro.service.executor.RemoteExecutor` reading it
   fans shards over that fleet, falling back to local compute when the
   fleet is gone.

Trust model is unchanged from :mod:`repro.service`: frames are pickles,
so replicas gossip only over trusted networks.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import ClusterWorkers
from repro.cluster.membership import ClusterMembership, MemberState
from repro.cluster.peering import (
    CachePeers,
    PeerPayloadError,
    decode_cached_report,
    encode_cached_report,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterWorkers",
    "ClusterMembership",
    "MemberState",
    "CachePeers",
    "PeerPayloadError",
    "encode_cached_report",
    "decode_cached_report",
]
