(** A long-lived checking service over one cloud.

    Where {!Modchecker.Orchestrator} answers a single question
    ("is this module intact right now?"), the engine is the process that
    answers {e many} of them concurrently: check, survey, and module-list
    requests are submitted into a bounded priority queue, routed to a
    shard of the VM pool, serviced on that shard's own domain, and
    answered through a {!Mc_parallel.Deferred.t}.

    Three properties distinguish it from looping over the one-shot API:

    - {b Sharding.} The request stream is partitioned across [shards]
      dispatcher domains, each servicing its own requests one at a time,
      so independent requests overlap instead of queueing behind one
      sequential caller. The shard is the engine's only unit of
      parallelism: it spawns exactly [shards] domains.
    - {b Coalescing.} An arriving request identical to one already
      queued or in flight does not run again — it receives the same
      deferred, and with it the in-flight requester's answer. Duplicate
      fan-in (every tenant asking about [hal.dll] after an advisory)
      costs one metered pipeline run, not N.
    - {b Shared incremental state.} All requests run over one
      {!Modchecker.Orchestrator.incremental}: per-VM page caches and
      footprint-keyed digest caches persist across requests, so a survey
      that follows a survey prices as staleness probes.

    Verdicts are identical to the standalone entry points' — the engine
    changes who does the work and what it costs, never what is decided
    (a property the engine tests assert for every detection scenario).

    On top of the core sit the service's protocol layers: {!Wire} — the
    typed line/JSON frames requests and responses travel as — and
    {!Serve} — the duplex session loop with windowed backpressure,
    protocol-level admission control, and hash-chained attestation into
    an [Mc_ledger.t]. *)

include module type of struct
  include Engine_core
end

module Wire = Wire
module Serve = Serve
