"""Check configuration for rfid-verify.

Everything here is part of the stamp-cache key: edit a root or a cap and
the next run re-analyzes from scratch.
"""

CHECKS = ("rng-discipline", "ordered-emit", "lock-hold-io", "format-window")

# ---- ordered-emit ---------------------------------------------------------

# Functions whose transitive callees must never iterate an unordered
# container: (name, class-or-None). Matched against the built call graph;
# additionally every function that writes serialized bytes (WritePod /
# WriteFramedSection) is auto-rooted.
ORDERED_EMIT_ROOTS = (
    ("Dispatch", "SubscriptionBus"),
    ("TakeEvents", None),
    ("RenderPrometheus", None),
    ("RenderJson", None),
    ("StatsJson", None),
    ("ToJson", None),
    ("DumpDiagnostics", None),
    # The event-emission funnel: these produce the per-site event stream
    # whose order is the bit-identity invariant.
    ("OnEpoch", "EventEmitter"),
    ("NotifyScanComplete", None),
)

# ---- rng-discipline -------------------------------------------------------

# Identifiers that legitimize a seed expression: the per-slot stream
# derivation helpers and the splitmix chain primitive.
SEED_CHAIN_HELPERS = ("SlotStreamSeed", "SlotStreamSeedAt", "SplitMix64")

# Files allowed to own nondeterminism primitives: the deterministic RNG and
# the monotonic clock.
NONDET_ALLOWED_FILES = ("util/rng.h", "util/stopwatch.h")

# ---- format-window --------------------------------------------------------

# Widest allowed (writer version - oldest loadable version) window. The
# repo's deprecation policy is one version back (see README "Failure model
# & recovery"): bumping kVersion forces the matching kMinVersion bump in
# the same change.
MAX_VERSION_WINDOW = 1

# ---- suppressions ---------------------------------------------------------

# Hard caps on RFID_VERIFY_ALLOW per check. Raising a cap is a reviewed
# change to this file, not a comment edit.
SUPPRESSION_CAPS = {
    "rng-discipline": 1,
    "ordered-emit": 8,
    "lock-hold-io": 9,
    "format-window": 1,
}
