"""CLI tests (subprocess-free: drive main() directly)."""

import csv
import gc
import warnings
from contextlib import contextmanager

import pytest

from repro.cli import build_parser, main


def test_parser_version():
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--version"])
    assert exc.value.code == 0


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("species", ["P_mercurii", "S_divinum"])
def test_predict_writes_pdbs_and_csv(species, tmp_path, capsys):
    """``repro predict`` is a one-worker campaign: every PDB and summary
    row is the campaign's, plant difficulty bias included."""
    from repro.core import ProteomePipeline
    from repro.fold import NativeFactory
    from repro.msa import build_suite
    from repro.sequences import SequenceUniverse, synthetic_proteome
    from repro.structure import write_pdb

    out = tmp_path / "predict"
    rc = main(
        [
            "predict",
            "--species", species,
            "--scale", "0.002",
            "--max-targets", "2",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(list(out.glob("*.pdb"))) == 2
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert "pLDDT" in capsys.readouterr().out

    universe = SequenceUniverse(3)
    targets = synthetic_proteome(species, universe=universe, seed=3, scale=0.002)[:2]
    suite = build_suite(universe, [species], seed=3, scale=0.002).reduced()
    campaign = ProteomePipeline(compute_workers=1).run(
        targets, suite, NativeFactory(universe)
    )
    top_models = campaign.inference_stage.top_models
    assert [row["record_id"] for row in rows] == list(top_models)
    for row in rows:
        top = top_models[row["record_id"]]
        assert (row["model"], row["recycles"], row["plddt"], row["ptms"]) == (
            top.model_name,
            str(top.n_recycles),
            f"{top.mean_plddt:.1f}",
            f"{top.ptms:.3f}",
        )
        expected = tmp_path / "campaign.pdb"
        write_pdb(campaign.relax_stage.outcomes[row["record_id"]].structure, expected)
        assert (out / row["pdb"]).read_bytes() == expected.read_bytes()


def test_relax_roundtrip(tmp_path, capsys, factory, proteome):
    from repro.structure import write_pdb

    native = factory.native(proteome[0])
    src = tmp_path / "model.pdb"
    write_pdb(native, src)
    rc = main(["relax", str(src)])
    assert rc == 0
    assert (tmp_path / "model_relaxed.pdb").exists()
    assert "clashes" in capsys.readouterr().out


def test_campaign_summary(capsys):
    rc = main(
        [
            "campaign",
            "--species", "P_mercurii",
            "--scale", "0.002",
            "--seed", "5",
            "--feature-nodes", "2",
            "--inference-nodes", "1",
            "--relax-nodes", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "node-h" in out
    assert "pLDDT>70" in out


CAMPAIGN_ARGS = [
    "campaign",
    "--species", "P_mercurii",
    "--scale", "0.002",
    "--seed", "5",
    "--feature-nodes", "2",
    "--inference-nodes", "1",
    "--relax-nodes", "1",
]


@contextmanager
def no_resource_warnings():
    """Fail if the block leaves a file open for the collector to find."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if w.category is ResourceWarning]
    assert leaks == []


def test_campaign_state_dir_then_resume(tmp_path, capsys):
    state = tmp_path / "state"
    rc = main(CAMPAIGN_ARGS + ["--state-dir", str(state)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "state    :" in out
    assert (state / "ledger.jsonl").exists()

    # Re-running against a used state dir without --resume is refused,
    # and the refused run state is closed.
    with no_resource_warnings():
        rc = main(CAMPAIGN_ARGS + ["--state-dir", str(state)])
    assert rc == 2
    assert "pass --resume" in capsys.readouterr().err

    rc = main(CAMPAIGN_ARGS + ["--state-dir", str(state), "--resume"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resume   : skipped" in out
    assert "node-h" in out

    # A state dir of another ledger schema is refused and left untouched.
    other = tmp_path / "other"
    other.mkdir()
    ledger = other / "ledger.jsonl"
    ledger.write_text('{"schema": "repro.runstate.ledger/1"}\n')
    rc = main(CAMPAIGN_ARGS + ["--state-dir", str(other), "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro.runstate.ledger/1" in err and "repro.runstate.ledger/2" in err
    assert ledger.read_text() == '{"schema": "repro.runstate.ledger/1"}\n'


def test_campaign_closes_state_when_the_run_raises(tmp_path, monkeypatch):
    from repro.core import ProteomePipeline

    def lost(self, *args, **kwargs):
        raise RuntimeError("node lost")

    monkeypatch.setattr(ProteomePipeline, "run", lost)
    with no_resource_warnings():
        with pytest.raises(RuntimeError, match="node lost"):
            main(CAMPAIGN_ARGS + ["--state-dir", str(tmp_path / "state")])


def test_campaign_resume_requires_state_dir(capsys):
    rc = main(CAMPAIGN_ARGS + ["--resume"])
    assert rc == 2
    assert "--resume requires --state-dir" in capsys.readouterr().err


def test_table1_mini(capsys):
    rc = main(["table1", "--n", "14", "--presets", "reduced_db", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reduced_db" in out
