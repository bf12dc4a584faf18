(** Multi-host fleet coordination with hierarchical voting.

    The paper validates ModChecker inside a single pool of identical VMs
    on one host. This library scales the idea out instead of up: many
    {!Host}s — each a whole {!Mc_hypervisor.Cloud} with its own clock
    and fault domain — arranged by
    {!Topology} into racks and regions, under a {!Coordinator} that fans
    requests out and merges verdicts hierarchically: host-local majority
    first, then cross-host consensus within each version cohort.

    The identical-VM assumption is dropped along the way: hosts (and
    pools) may mix kernel patch levels, and every vote — VM-level and
    host-level — is grouped by module version before comparison, so a
    legitimate version split never drowns a majority and an infection is
    judged against its own cohort. Host-level faults (a dead host, a
    slow rack) reuse the quorum/[Degraded] machinery: no ballot, no
    cohort seat, and a degraded fleet verdict once host quorum is
    lost. *)

module Host = Host
module Topology = Topology
module Coordinator = Coordinator
