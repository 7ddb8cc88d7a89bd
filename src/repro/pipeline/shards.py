"""Per-project shard planning for the map stages of the pipeline.

The sharded pipeline keys its map work (``generate``/``mine``/
``analyze``) **per project**: each project's shard carries one
content-addressed key per map stage, chained generate → mine → analyze
exactly like whole-corpus stage fingerprints chain across the DAG.  A
shard key's parameters are the project's *identity* — its name plus
digests of its sampled :class:`~repro.corpus.generator.ProjectSpec` and
its :class:`~repro.corpus.profiles.TaxonProfile` — so editing one
project's seed (or spec, or profile) re-keys exactly that project's
map cone and nothing else.

Planning is cheap by construction: :func:`plan_shards` consumes the
``(spec, profile)`` pairs of :func:`~repro.corpus.generator.corpus_specs`
— sampled from the corpus RNG without realising a single commit — so a
fully warm run never pays for generation at all.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..corpus.generator import ProjectSpec
from ..corpus.profiles import TaxonProfile
from .fingerprint import canonical_params, digest_text, stage_fingerprint

#: The map stages, in chaining order (generate feeds mine feeds analyze).
SHARD_STAGES = ("generate", "mine", "analyze")


def spec_digest(spec: ProjectSpec) -> str:
    """A content digest of one project spec (identity, not payload).

    Folds every spec field through the canonical-params JSON (enums and
    ``Month`` stringify), so any sampled property — per-project seed,
    duration, vendor, start month — re-keys the project's shards.
    """
    return digest_text("project-spec", canonical_params(
        dataclasses.asdict(spec)
    ))


def profile_digest(profile: TaxonProfile) -> str:
    """A content digest of one taxon profile's generative parameters."""
    return digest_text("taxon-profile", canonical_params(
        dataclasses.asdict(profile)
    ))


@dataclass(frozen=True)
class ShardSpec:
    """One project's shard: identity plus its per-stage artifact keys.

    ``keys`` maps each map stage to the shard's content-addressed store
    key.  The keys chain: ``mine`` folds the ``generate`` key as its
    upstream, ``analyze`` folds ``mine``, so a changed spec re-keys all
    three while every other shard stays warm.
    """

    index: int
    project: str
    spec: ProjectSpec = field(compare=False)
    profile: TaxonProfile = field(compare=False)
    keys: dict = field(compare=False)
    #: The identity params the ``generate`` key folds (project name +
    #: spec/profile digests) — kept on the shard so provenance records
    #: can name *which* digest moved when a shard re-keys.
    identity: dict = field(compare=False, default_factory=dict)

    def key(self, stage: str) -> str:
        return self.keys[stage]

    def upstream(self, stage: str) -> dict[str, str]:
        """The stage's upstream keys within this shard's map cone."""
        i = SHARD_STAGES.index(stage)
        if i == 0:
            return {}
        previous = SHARD_STAGES[i - 1]
        return {previous: self.keys[previous]}


def plan_shard(
    index: int,
    spec: ProjectSpec,
    profile: TaxonProfile,
    code_versions: dict[str, str],
    dialect: str | None = None,
) -> ShardSpec:
    """Plan one project's :class:`ShardSpec` (the per-shard unit).

    Each shard is planned from its own identity alone, so planning
    streams: the pipeline can plan, execute and release one shard at a
    time without ever holding the whole plan.

    ``dialect`` is the workload's shard-identity component: non-default
    workloads fold it into the ``generate`` key's params (so ``pipeline
    explain`` attributes a workload switch to ``params.dialect``), on
    top of the vendor already folded through ``spec_digest``.  The
    default workload passes ``None`` and the identity — and with it
    every canonical store key — is byte-identical to the pre-workload
    layout.
    """
    identity = {
        "project": spec.name,
        "spec": spec_digest(spec),
        "profile": profile_digest(profile),
    }
    if dialect is not None:
        identity["dialect"] = dialect
    generate_key = stage_fingerprint(
        "generate", code_versions["generate"], identity, {}
    )
    mine_key = stage_fingerprint(
        "mine", code_versions["mine"], {}, {"generate": generate_key}
    )
    analyze_key = stage_fingerprint(
        "analyze", code_versions["analyze"], {}, {"mine": mine_key}
    )
    return ShardSpec(
        index=index,
        project=spec.name,
        spec=spec,
        profile=profile,
        keys={
            "generate": generate_key,
            "mine": mine_key,
            "analyze": analyze_key,
        },
        identity=identity,
    )


def iter_shards(pairs, code_versions: dict[str, str], dialect: str | None = None):
    """Stream one :class:`ShardSpec` per ``(spec, profile)`` pair.

    ``pairs`` may be any iterable — in the streaming pipeline it is the
    :func:`~repro.corpus.generator.iter_corpus_specs` generator, so a
    100k-project plan is never held whole.  Shards keep corpus order
    (the reduce stages fold rows in corpus order, matching a serial
    ``run_study`` byte for byte); the *family* fingerprint over shard keys
    sorts internally, so ordering here is presentation, not addressing.
    """
    for index, (spec, profile) in enumerate(pairs):
        yield plan_shard(index, spec, profile, code_versions, dialect)


def plan_shards(
    pairs: list[tuple[ProjectSpec, TaxonProfile]],
    code_versions: dict[str, str],
    dialect: str | None = None,
) -> list[ShardSpec]:
    """Plan one :class:`ShardSpec` per ``(spec, profile)`` pair.

    The list form of :func:`iter_shards`, for callers that hold the
    whole plan anyway (status tables, invalidation, tests).
    """
    return list(iter_shards(pairs, code_versions, dialect))


def shard_batches(items: list, count: int) -> list[list]:
    """Split ``items`` into at most ``count`` contiguous batches.

    Degenerate inputs stay well-formed: ``count`` larger than the item
    count yields singletons, an empty list yields no batches, and every
    batch is non-empty (sizes differ by at most one).
    """
    if not items or count <= 0:
        return []
    count = min(count, len(items))
    size, extra = divmod(len(items), count)
    batches: list[list] = []
    start = 0
    for i in range(count):
        stop = start + size + (1 if i < extra else 0)
        batches.append(list(items[start:stop]))
        start = stop
    return batches
