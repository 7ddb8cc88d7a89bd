"""End-to-end integration tests: generator → text → mining → study.

These tests deliberately cross every module boundary: projects are
generated, serialised to git-log text and DDL files, re-parsed by the
same parsers a real clone would go through, mined into heartbeats,
measured, classified and aggregated into figures.
"""

import hashlib

import pytest

from repro.analysis import analyze_project, canonical_study, run_study
from repro.coevolution import theta_synchronicity
from repro.corpus import (
    ProjectSpec,
    generate_corpus,
    generate_project,
    profile_for,
    screen,
)
from repro.heartbeat import Month, is_monotone
from repro.mining import mine_project
from repro.report import build_study_report
from repro.taxa import Taxon
from repro.vcs import parse_repository


@pytest.fixture(scope="module")
def study():
    return canonical_study()


class TestPipelineConsistency:
    def test_git_log_roundtrip_preserves_mining(self):
        spec = ProjectSpec(
            name="it/roundtrip",
            taxon=Taxon.MODERATE,
            seed=2024,
            vendor="mysql",
            duration_months=30,
            start=Month(2013, 5),
        )
        project = generate_project(spec, profile_for(Taxon.MODERATE))
        # reparse the emitted text into a *fresh* repository
        reparsed = parse_repository("it/roundtrip", project.git_log_text)
        for path, versions in project.repository.file_contents.items():
            for version in versions:
                reparsed.record_version(path, version)
        a = mine_project(project.repository)
        b = mine_project(reparsed)
        assert a.project_heartbeat.values == b.project_heartbeat.values
        assert a.schema_heartbeat.values == b.schema_heartbeat.values

    def test_all_joint_progress_series_are_monotone(self, study):
        for project in study.projects:
            assert is_monotone(project.joint.project), project.name
            assert is_monotone(project.joint.schema), project.name
            assert is_monotone(project.joint.time), project.name

    def test_all_series_end_at_one(self, study):
        for project in study.projects:
            assert project.joint.project[-1] == pytest.approx(1.0)
            assert project.joint.schema[-1] == pytest.approx(1.0)

    def test_schema_activity_never_negative(self, study):
        for project in study.projects:
            assert all(
                v >= 0 for v in project.joint.schema
            ), project.name

    def test_measures_agree_with_direct_computation(self, study):
        for project in study.projects[::19]:
            direct = theta_synchronicity(project.joint, 0.10)
            assert project.sync10 == pytest.approx(direct)

    def test_every_generated_project_passes_elicitation(self):
        for project in generate_corpus(seed=606)[::9]:
            assert screen(project.repository).accepted


class TestStudyStability:
    def test_same_seed_same_study(self):
        a = run_study(generate_corpus(seed=11))
        b = run_study(generate_corpus(seed=11))
        assert [p.name for p in a.projects] == [p.name for p in b.projects]
        assert [p.sync10 for p in a.projects] == [
            p.sync10 for p in b.projects
        ]

    def test_different_seeds_similar_shape(self):
        """The calibrated *shape* holds across seeds, not just one draw."""
        for seed in (21, 22):
            study = run_study(generate_corpus(seed=seed))
            headline = study.headline()
            n = headline["projects"]
            assert n == 195
            # majority attains 75% early-ish (paper: 98/195 in first 20%)
            assert headline["attain75_first20"] >= 0.30 * n
            # ordering: always-over-time >= always-over-source >= both
            assert (
                headline["always_over_time"]
                >= headline["always_over_source"]
                >= headline["always_over_both"]
            )
            # a resistance tail exists (paper: 27 late 75%-attainers)
            assert headline["attain75_after80"] >= 5

    def test_taxon_ground_truth_recovered(self, study):
        labelled = [
            p for p in study.projects if p.true_taxon is not None
        ]
        agree = sum(1 for p in labelled if p.taxon is p.true_taxon)
        assert agree / len(labelled) >= 0.80


class TestAnalyzeSingleProject:
    def test_case_study_analogue(self):
        """A §3.3-style single-project walk-through, end to end."""
        spec = ProjectSpec(
            name="mapbox/osm-comments-parser-analogue",
            taxon=Taxon.MODERATE,
            seed=33,
            vendor="postgres",
            duration_months=22,
            start=Month(2015, 6),
        )
        project = generate_project(spec, profile_for(Taxon.MODERATE))
        history = mine_project(project.repository)
        measures = analyze_project(history, true_taxon=Taxon.MODERATE)
        assert measures.duration_months == 22
        assert 0 <= measures.sync10 <= 1
        assert measures.schema_commits >= 2
        assert measures.attainment(1.0) <= 1.0


class TestCanonicalReport:
    #: sha256 of the canonical Markdown report, the bytes
    #: ``repro report`` writes for the paper's corpus seed
    PINNED_SHA256 = (
        "e97b650eabed27ffda036524c04cd079a94a9747cd40bac06e79afc1e401466e"
    )

    def test_report_bytes_are_pinned(self, study):
        report = build_study_report(study).encode()
        assert hashlib.sha256(report).hexdigest() == self.PINNED_SHA256
