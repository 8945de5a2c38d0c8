"""End-to-end tests for the command-line interface."""

import json
import math

import pytest

from stabdecomp import cli, decomposition, known
from stabdecomp.certify import Certificate
from stabdecomp.cli import main
from stabdecomp.decomposition import Decomposition, exponent_from_bound
from stabdecomp.stabilizer import MAGIC_STATES, magic_p, magic_power


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_fixture_exact_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--fixture", "norrell_m4", "--exact", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["format"] == "stabdecomp-verify"
    (row,) = payload["results"]
    assert row["name"] == "norrell_m4"
    assert row["passed"]
    assert row["exact_mismatches"] == []
    assert row["residual"] <= 1e-13


def test_verify_all_fixtures(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--all-fixtures", "--exact", "--out", str(out)]) == 0
    payload = read_json(out)
    assert {r["name"] for r in payload["results"]} == set(known.FIXTURES)
    assert all(r["passed"] for r in payload["results"])


def test_verify_usage_errors(tmp_path, capsys):
    capsys.readouterr()
    assert main(["verify", "--fixture", "nope", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "unknown fixture 'nope' (choose from %s)\n" % ", ".join(sorted(known.FIXTURES))
    assert main(["verify", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "need --fixture, --all-fixtures, or --file\n"
    assert not (tmp_path / "r.json").exists()


def test_verify_file_roundtrip_and_failure(tmp_path):
    dec = known.FIXTURES["strange_m2"]()
    good = tmp_path / "good.json"
    dec.save(str(good))
    assert main(["verify", "--file", str(good), "--exact", "--out", str(tmp_path / "a.json")]) == 0

    bad = Decomposition(dec.target, dec.states[:1], dec.coeffs[:1], dec.npow)
    bad_path = tmp_path / "bad.json"
    bad.save(str(bad_path))
    assert main(["verify", "--file", str(bad_path), "--out", str(tmp_path / "b.json")]) == 1
    row = read_json(tmp_path / "b.json")["results"][0]
    assert not row["passed"]
    assert row["residual"] > 0.1


def test_verify_file_checks_state_dimensions_before_the_target(tmp_path, capsys, monkeypatch):
    # N at copies 10 has 59,049 exact amplitudes: they used to be built before the 2-qutrit states were refused
    payload = known.FIXTURES["norrell_m2"]().to_payload()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(payload, copies=10)))
    built = []
    real = decomposition.magic_power
    monkeypatch.setattr(decomposition, "magic_power", lambda name, m: built.append(m) or real(name, m))
    capsys.readouterr()
    assert main(["verify", "--file", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "state dimensions must match the target\n"
    assert 10 not in built and not (tmp_path / "r.json").exists()


def test_verify_file_refuses_a_phase_constant(tmp_path, capsys):
    payload = known.FIXTURES["strange_m2"]().to_payload()
    payload["terms"][1]["state"]["phase"]["c"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--file", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "phase constant must be zero (global phase fixed)\n"
    assert not (tmp_path / "r.json").exists()


def _fixtures_must_not_run(monkeypatch):
    def no_fixture():
        raise AssertionError("a fixture ran before the file was read")

    monkeypatch.setattr(known, "FIXTURES", {name: no_fixture for name in known.FIXTURES})


def test_verify_unreadable_file_usage_error(tmp_path, capsys, monkeypatch):
    # the file is read before any fixture runs; each failure is one stderr line and no report
    payload = known.FIXTURES["strange_m2"]().to_payload()
    _fixtures_must_not_run(monkeypatch)
    out = tmp_path / "r.json"
    missing = tmp_path / "missing.json"
    capsys.readouterr()
    assert main(["verify", "--all-fixtures", "--file", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "cannot read decomposition %s: No such file or directory\n" % missing

    bad = tmp_path / "bad.json"
    for text in ("not json at all", "{\"format\": "):
        bad.write_text(text)
        assert main(["verify", "--all-fixtures", "--file", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("decomposition %s is not JSON: " % bad) and err.count("\n") == 1

    for field in ("target", "copies", "terms"):
        bad.write_text(json.dumps({k: v for k, v in payload.items() if k != field}))
        assert main(["verify", "--all-fixtures", "--file", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "decomposition lacks the field %r\n" % field
    assert not out.exists()


@pytest.mark.parametrize(
    "fixture, n_power, message",
    [
        ("norrell_m2", 1, "decomposition n_power 1 and the N power 0 of its target (N, 2 copies) differ in parity"),
        ("h3_m3", 2, "decomposition n_power 2 and the N power 3 of its target (H3, 3 copies) differ in parity"),
        ("h3_m3", -1, "decomposition n_power must be at least 0, got -1"),
    ],
    ids=["odd-over-even", "even-over-odd", "negative"],
)
def test_verify_refuses_an_n_power_off_the_target_parity(tmp_path, capsys, monkeypatch, fixture, n_power, message):
    # coefficients over N^1 never sum to a target over N^0: N is not cyclotomic.
    # Such a file used to pass to the numeric check and then fail the exact one
    # with "cannot clear npow 0 to denominator power 1"; it is refused on loading
    payload = known.FIXTURES[fixture]().to_payload()
    _fixtures_must_not_run(monkeypatch)

    def no_check(self):
        raise AssertionError("a decomposition was checked after loading")

    monkeypatch.setattr(Decomposition, "verify_numeric", no_check)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(payload, n_power=n_power)))
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["verify", "--all-fixtures", "--file", str(bad), "--exact", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("format", "stabdecomp-certificate",
         "decomposition field 'format' = 'stabdecomp-certificate' is not 'stabdecomp-decomposition'"),
        ("version", 7, "decomposition field 'version' = 7 is not 1"),
        ("rank", 9, "decomposition field 'rank' = 9 is not the number of terms, 3"),
        ("p", 2, "decomposition field 'p' = 2 is not 3, the p of its target N"),
    ],
)
def test_verify_refuses_a_file_whose_header_is_false(tmp_path, capsys, monkeypatch, field, value, message):
    # each of these used to load as the rank-3 decomposition of the terms and verify exactly
    payload = known.FIXTURES["norrell_m2"]().to_payload()
    _fixtures_must_not_run(monkeypatch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(payload, **{field: value})))
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["verify", "--all-fixtures", "--file", str(bad), "--exact", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_verify_mistyped_file_usage_error(tmp_path, capsys, monkeypatch):
    # a payload of the wrong JSON type is refused before any fixture runs, with no report
    payload = known.FIXTURES["strange_m2"]().to_payload()
    _fixtures_must_not_run(monkeypatch)
    out = tmp_path / "r.json"
    bad = tmp_path / "bad.json"
    cases = [
        ([], "a decomposition payload must be an object, not an array"),
        (dict(payload, terms=5), "decomposition field 'terms' must be an array, not an integer"),
        (dict(payload, copies="2"), "decomposition field 'copies' must be an integer, not a string"),
        (dict(payload, target=None), "decomposition field 'target' must be a string, not null"),
        (dict(payload, n_power=True), "decomposition field 'n_power' must be an integer, not a boolean"),
        (dict(payload, terms=[7]), "decomposition field 'terms[0]' must be an object, not an integer"),
        (dict(payload, terms=[{"coeff": {}}]), "decomposition lacks the field 'terms[0].state'"),
        (dict(payload, terms=[payload["terms"][0], {"state": [], "coeff": {}}]),
         "decomposition field 'terms[1].state' must be an object, not an array"),
    ]
    broken = dict(payload["terms"][0], coeff=dict(payload["terms"][0]["coeff"], coeffs=5))
    cases.append((dict(payload, terms=[broken]), "decomposition field 'terms[0]' is malformed (TypeError: "))
    for body, message in cases:
        bad.write_text(json.dumps(body))
        assert main(["verify", "--all-fixtures", "--file", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["catalog", "--p", "3", "--n", "1"], "build_catalog"),
        (["verify", "--file", "{decomposition}"], "_verify_one"),
        (["search", "--target", "S", "--m", "2", "--r", "2", "--chains", "1", "--steps", "10"], "anneal_search"),
        (["certify", "--target", "T3", "--m", "1", "--r", "2"], "certify_rank"),
        (["merge", "{certificate}", "{certificate}"], "merge_certificates"),
        (["audit", "--cert", "{certificate}"], "audit"),
        (["sweep", "injection", "--state", "S"], "sweep_injection"),
        (["orbit", "--state", "N"], "generate_clifford_group"),
        (["bound", "--m", "3", "--state", "N"], "find_ratio_witness"),
        (["exponent", "--r", "7", "--m", "6"], None),  # its only work is the checked formula
    ],
    ids=["catalog", "verify", "search", "certify", "merge", "audit", "sweep", "orbit", "bound", "exponent"],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, work):
    # --out under a regular file, and --out naming a directory: one stderr line, exit 2,
    # and every command refuses the path after reading its inputs and before its work
    known.FIXTURES["strange_m2"]().save(str(tmp_path / "dec.json"))
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(tmp_path / "cert.json")]) == 0
    argv = [a.format(decomposition=tmp_path / "dec.json", certificate=tmp_path / "cert.json") for a in argv]

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    if work:
        monkeypatch.setattr(cli, work, no_work)
    blocker = tmp_path / "F"
    blocker.write_text("")
    capsys.readouterr()
    for path, reason in ((blocker / "x.json", "File exists"), (tmp_path, "Is a directory")):
        assert main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "cannot write %s: %s\n" % (path, reason)
        assert "wrote" not in captured.out
    assert blocker.read_text() == ""


def test_catalog_writes_jsonl(tmp_path):
    out = tmp_path / "cat.jsonl"
    assert main(["catalog", "--p", "3", "--n", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "stabdecomp-catalog"
    assert header["count"] == 12
    assert len(lines) == 13


@pytest.mark.parametrize(
    "p,n,message",
    [
        (3, 0, "--n must be at least 1 qudit, got 0"),
        (3, -1, "--n must be at least 1 qudit, got -1"),
        (3, 5, "catalog p=3 n=5 has 5445377280 states, above the 10000000 that catalog writes"),
        (2, 6, "catalog p=2 n=6 has 315057600 states, above the 10000000 that catalog writes"),
    ],
)
def test_catalog_refuses_bad_sizes_before_any_work(tmp_path, capsys, monkeypatch, p, n, message):
    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a size catalog refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    out = tmp_path / "cat.jsonl"
    capsys.readouterr()
    assert main(["catalog", "--p", str(p), "--n", str(n), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_catalog_limit_passes_the_largest_catalogs(monkeypatch):
    # (3,4) and (2,5) are below the limit; stop at build_catalog, which they reach
    def reached(p, n):
        raise ValueError("reached %d %d" % (p, n))

    monkeypatch.setattr(cli, "build_catalog", reached)
    assert cli.Catalog.expected_count(3, 4) == 7439040 <= cli.CATALOG_MAX_STATES
    assert cli.Catalog.expected_count(2, 5) == 2423520 <= cli.CATALOG_MAX_STATES
    for p, n in ((3, 4), (2, 5)):
        with pytest.raises(ValueError, match="reached %d %d" % (p, n)):
            cli.cmd_catalog(cli.build_parser().parse_args(["catalog", "--p", str(p), "--n", str(n)]))


def test_certify_t3_pair_cli(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0
    cert = Certificate.load(str(out))
    assert cert.total_tuples == 66
    assert cert.tuples_tested == 66
    assert cert.witnesses == []
    assert cert.rules_out()


def test_certify_deterministic_apart_from_walltime(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "1", "--out", str(a)]) == 0
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "1", "--out", str(b)]) == 0
    pa, pb = read_json(a), read_json(b)
    pa.pop("wall_time"), pb.pop("wall_time")
    assert pa == pb


def _t3_shards(tmp_path):
    """The three shard certificates of T3 at r=2, as payloads and paths."""
    paths = []
    for i in range(3):
        out = tmp_path / ("shard%d.json" % i)
        assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--shard", "%d/3" % i, "--out", str(out)]) == 0
        paths.append(out)
    return [read_json(p) for p in paths], paths


def test_certify_shards_merge_and_audit_cli(tmp_path):
    paths = [str(p) for p in _t3_shards(tmp_path)[1]]
    part = Certificate.load(paths[1])
    assert not part.full_coverage
    assert not part.rules_out()

    merged = tmp_path / "merged.json"
    assert main(["merge", *paths, "--out", str(merged)]) == 0
    cert = Certificate.load(str(merged))
    assert cert.full_coverage
    assert cert.tuples_tested == 66
    assert cert.rules_out()

    assert main(["audit", "--cert", str(merged), "--out", str(tmp_path / "audit.json")]) == 0
    report = read_json(tmp_path / "audit.json")
    assert report["passed"]
    assert report["failures"] == []


def test_commands_create_a_missing_out_directory(tmp_path, monkeypatch):
    shards = [str(p) for p in _t3_shards(tmp_path)[1]]
    for argv in (["certify", "--target", "T3", "--m", "1", "--r", "2"], ["merge", *shards]):
        out = tmp_path / argv[0] / "new" / "dir" / "x"
        assert main([*argv, "--out", str(out)]) == 0
        assert Certificate.load(str(out)).rules_out()
    out = tmp_path / "catalog" / "new" / "dir" / "x"
    assert main(["catalog", "--p", "3", "--n", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 13

    outdir = tmp_path / "missing" / "outdir"
    monkeypatch.setenv("STABDECOMP_OUTDIR", str(outdir))
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2"]) == 0
    assert Certificate.load(str(outdir / "cert-T3-r2-shard0of1.json")).rules_out()


@pytest.mark.parametrize(
    "shard, message",
    [("x", "--shard expects i/N, e.g. 0/100"), ("3/3", "shard index out of range"), ("1/0", "shard index out of range")],
)
def test_bad_shard_usage_error_before_the_catalog(tmp_path, capsys, monkeypatch, shard, message):
    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a shard certify refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--shard", shard, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_merge_inconsistent_usage_error(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--shard", "0/3", "--out", str(a)]) == 0
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--shard", "2/3", "--out", str(b)]) == 0
    assert main(["merge", str(a), str(b), "--out", str(tmp_path / "m.json")]) == 2


def test_legacy_dedupe_label_reads_as_the_one_catalog(tmp_path, capsys):
    payloads, paths = _t3_shards(tmp_path)
    assert payloads[0]["catalog_mode"] == "raw"
    legacy = dict(payloads[0], catalog_mode="dedupe")
    paths[0].write_text(json.dumps(legacy))
    assert main(["audit", "--cert", str(paths[0]), "--out", str(tmp_path / "a.json")]) == 0
    assert read_json(tmp_path / "a.json")["passed"]

    merged = tmp_path / "merged.json"
    assert main(["merge", str(paths[0]), str(paths[1]), "--out", str(merged)]) == 0
    out = read_json(merged)
    assert out["catalog_mode"] == "raw"
    assert out["tuples_tested"] == payloads[0]["tuples_tested"] + payloads[1]["tuples_tested"]

    paths[0].write_text(json.dumps(dict(payloads[0], catalog_mode="bogus")))
    capsys.readouterr()
    assert main(["audit", "--cert", str(paths[0]), "--out", str(tmp_path / "b.json")]) == 2
    assert "unknown catalog_mode 'bogus'" in capsys.readouterr().err
    assert main(["merge", str(paths[0]), str(paths[1]), "--out", str(tmp_path / "m2.json")]) == 2
    assert "unknown catalog_mode 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists() and not (tmp_path / "m2.json").exists()


def test_malformed_certificate_usage_error(tmp_path, capsys):
    payloads, paths = _t3_shards(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "stabdecomp-certificate", "version": 1}))
    capsys.readouterr()
    assert main(["audit", "--cert", str(bad), "--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == "certificate lacks the field 'catalog_mode'\n"
    assert main(["merge", str(paths[0]), str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "merge failed: certificate lacks the field 'catalog_mode'\n"

    bad.write_text("[]")
    assert main(["audit", "--cert", str(bad), "--out", str(tmp_path / "a.json")]) == 2
    assert "not a certificate payload" in capsys.readouterr().err

    for field in ("target", "witnesses"):
        bad.write_text(json.dumps({k: v for k, v in payloads[1].items() if k != field}))
        assert main(["audit", "--cert", str(bad), "--out", str(tmp_path / "a.json")]) == 2
        assert capsys.readouterr().err == "certificate lacks the field %r\n" % field
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "m.json").exists()


def _usage_errors(tmp_path, capsys, cert, good):
    """stderr of `audit` and `merge` on one unusable certificate path: both exit 2 and write nothing."""
    capsys.readouterr()
    assert main(["audit", "--cert", str(cert), "--out", str(tmp_path / "a.json")]) == 2
    audit_err = capsys.readouterr().err
    assert main(["merge", str(good), str(cert), "--out", str(tmp_path / "m.json")]) == 2
    merge_err = capsys.readouterr().err
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "m.json").exists()
    assert merge_err == "merge failed: " + audit_err
    assert audit_err.count("\n") == 1
    return audit_err


def test_unreadable_certificate_usage_error(tmp_path, capsys):
    paths = _t3_shards(tmp_path)[1]
    missing = tmp_path / "missing.json"
    err = _usage_errors(tmp_path, capsys, missing, paths[0])
    assert err == "cannot read certificate %s: No such file or directory\n" % missing
    for text in ("not json at all", "{\"format\": ", "\xff\xfe"):
        paths[2].write_bytes(text.encode("latin-1"))
        assert _usage_errors(tmp_path, capsys, paths[2], paths[0]).startswith("certificate %s is not JSON: " % paths[2])


_T3_PAIR = "must be 2 increasing indices below catalog_count 12"
_TOL_RANGE = "is not between the witness floor 1e-12 and the exact re-score threshold 1e-06"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("witnesses", 5, "certificate field 'witnesses' must be an array, not an integer"),
        ("witnesses", [[0, 1], 2], "certificate field 'witnesses[1]' must be an array, not an integer"),
        ("witnesses", [[0, "1"]], "certificate field 'witnesses[0][1]' must be an integer, not a string"),
        ("witnesses", [[0, True]], "certificate field 'witnesses[0][1]' must be an integer, not a boolean"),
        ("shard", [0, 22], "certificate field 'shard' must be an object, not an array"),
        ("shard", {"lo": 0, "hi": "22"}, "certificate field 'shard.hi' must be an integer, not a string"),
        ("shard", {"lo": 0}, "certificate lacks the field 'shard.hi'"),
        ("shard", {"lo": 0, "hi": 22, "index": 0.5},
         "certificate field 'shard.index' must be an integer or null, not a number"),
        ("tol", "1e-10", "certificate field 'tol' must be a number, not a string"),
        ("r", 2.0, "certificate field 'r' must be an integer, not a number"),
        ("full_coverage", 0, "certificate field 'full_coverage' must be a boolean, not an integer"),
        ("target", None, "certificate field 'target' must be a string, not null"),
        ("catalog_mode", 1, "certificate field 'catalog_mode' must be a string, not an integer"),
        ("witnesses", [[3, 99]], "certificate field 'witnesses[0]' " + _T3_PAIR),
        ("witnesses", [[0, 1], [-1, 3]], "certificate field 'witnesses[1]' " + _T3_PAIR),
        ("witnesses", [[5, 3]], "certificate field 'witnesses[0]' " + _T3_PAIR),
        ("witnesses", [[3]], "certificate field 'witnesses[0]' " + _T3_PAIR),
        # a rank above the catalog has no tuple to test, so "ruled out" would be vacuous
        ("r", 13, "certificate rank r = 13 is not between 1 and catalog_count 12"),
        ("r", 0, "certificate rank r = 0 is not between 1 and catalog_count 12"),
        # below the floor an exact witness scores above tol; above the range a candidate skips the re-score
        ("tol", 0, "certificate field 'tol' = 0 " + _TOL_RANGE),
        ("tol", -1e-10, "certificate field 'tol' = -1e-10 " + _TOL_RANGE),
        ("tol", 1e-17, "certificate field 'tol' = 1e-17 " + _TOL_RANGE),
        ("tol", 0.3, "certificate field 'tol' = 0.3 " + _TOL_RANGE),
        # NaN passes every comparison the audit makes
        ("min_nonwitness_residual", math.nan, "certificate field 'min_nonwitness_residual' must be a number, not NaN"),
        ("wall_time", math.nan, "certificate field 'wall_time' must be a number, not NaN"),
        # a later format version may change what the fields mean
        ("version", 7, "certificate field 'version' = 7 is not 1"),
    ],
)
def test_bad_certificate_field_usage_error(tmp_path, capsys, field, value, message):
    payloads, paths = _t3_shards(tmp_path)
    paths[2].write_text(json.dumps(dict(payloads[2], **{field: value})))
    assert _usage_errors(tmp_path, capsys, paths[2], paths[0]) == message + "\n"


def test_certificate_shard_past_the_tuple_space_usage_error(tmp_path, capsys):
    # T3 at r=2 has 66 tuples: a shard to 100 used to end the audit in an IndexError
    payloads, paths = _t3_shards(tmp_path)
    forged = dict(payloads[0], shard=dict(payloads[0]["shard"], hi=100), tuples_tested=100, full_coverage=False)
    paths[0].write_text(json.dumps(forged))
    err = _usage_errors(tmp_path, capsys, paths[0], paths[1])
    assert err == "certificate field 'shard.hi' = 100 is above total_tuples 66\n"


def test_bench_certify_pruned_commands(tmp_path):
    # the benchmark's certify-pruned pair: a failed command here would be a failed bench run
    cert, report = tmp_path / "cert.json", tmp_path / "audit.json"
    assert main(["certify", "--target", "H", "--m", "4", "--r", "3", "--shard", "0/200000", "--out", str(cert)]) == 0
    payload = read_json(cert)
    assert payload["tuples_tested"] == payload["tuples_pruned"] == 41_256_396
    assert payload["min_nonwitness_residual"] == 0.25
    assert main(["audit", "--cert", str(cert), "--samples", "1000", "--seed", "0", "--out", str(report)]) == 0
    out = read_json(report)
    assert out["passed"] and out["failures"] == []
    assert out["samples_tested"] == 1000


def test_certify_tol_above_rescore_threshold_usage_error(tmp_path):
    out = tmp_path / "c.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--tol", "0.3", "--out", str(out)]) == 2
    assert not out.exists()


def test_certify_dimension_above_mask_bits_usage_error(tmp_path):
    out = tmp_path / "c.json"
    assert main(["certify", "--target", "N", "--m", "4", "--r", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_certify_refuses_before_building_the_catalog(tmp_path, monkeypatch):
    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a request certify refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    out = tmp_path / "c.json"
    for extra in (["--target", "N", "--m", "4", "--r", "1"], ["--target", "S", "--m", "3", "--r", "2", "--tol", "0.3"]):
        assert main(["certify", *extra, "--out", str(out)]) == 2
    assert not out.exists()


def _no_target(monkeypatch, command):
    def no_target(*args, **kwargs):
        raise AssertionError("a target built for a request %s refuses" % command)

    monkeypatch.setattr(cli, "magic_power", no_target)
    monkeypatch.setattr(cli, "build_catalog", no_target)


def test_certify_refuses_many_copies_before_building_the_target(tmp_path, capsys, monkeypatch):
    # N at 12 copies has 531,441 exact amplitudes, once built before the refusal
    _no_target(monkeypatch, "certify")
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert main(["certify", "--target", "N", "--m", "12", "--r", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "531441 basis states exceed the 63 bits of a support mask\n"
    assert not out.exists()


def test_certify_rank_above_the_catalog_usage_error(tmp_path, capsys, monkeypatch):
    # one qutrit has 12 stabilizer states: r = 13 leaves no tuple to test
    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a request certify refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert main(["certify", "--target", "N", "--m", "1", "--r", "13", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "r = 13 is not between 1 and the 12 catalog states\n"
    assert "ruled out" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1", "1e-17", "nan"])
def test_certify_tol_below_witness_floor_usage_error(tmp_path, capsys, tol):
    # S^2 has rank 2 (strange_m2), and its exact witnesses score about 1.5e-16:
    # a tol below that would rule the rank out over the full tuple space
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert main(["certify", "--target", "S", "--m", "2", "--r", "2", "--tol", tol, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "tol %s %s\n" % (tol, _TOL_RANGE)
    assert "ruled out" not in captured.out
    assert not out.exists()


def test_certify_at_the_witness_floor_finds_the_witnesses(tmp_path):
    out = tmp_path / "c.json"
    assert main(["certify", "--target", "S", "--m", "2", "--r", "2", "--tol", "1e-12", "--out", str(out)]) == 0
    assert read_json(out)["witnesses"]
    assert main(["audit", "--cert", str(out), "--out", str(tmp_path / "a.json")]) == 0


def _no_catalog(monkeypatch):
    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a request the CLI refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)


@pytest.mark.parametrize("command", ["certify", "search"])
def test_zero_copies_usage_error(tmp_path, capsys, monkeypatch, command):
    _no_catalog(monkeypatch)
    out = tmp_path / "out.json"
    capsys.readouterr()
    for m in ("0", "-1"):
        assert main([command, "--target", "S", "--m", m, "--r", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "--m must be at least 1 copy, got %s\n" % m
    assert not out.exists()


def test_full_coverage_certificate_with_a_forged_minimum_or_pruned_count(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["full_coverage"] and not payload["witnesses"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(dict(payload, min_nonwitness_residual=math.nan)))
    err = _usage_errors(tmp_path, capsys, forged, out)
    assert err == "certificate field 'min_nonwitness_residual' must be a number, not NaN\n"
    forged.write_text(json.dumps(dict(payload, tuples_pruned=-7)))
    assert main(["audit", "--cert", str(forged), "--out", str(tmp_path / "a.json")]) == 1
    assert read_json(tmp_path / "a.json")["failures"] == ["coverage-arithmetic"]
    # an empty shard records an infinite minimum, which stays legal
    empty = tmp_path / "empty.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--shard", "5/100", "--out", str(empty)]) == 0
    assert read_json(empty)["tuples_tested"] == 0
    assert Certificate.load(str(empty)).min_nonwitness_residual == math.inf


def test_audit_negative_samples_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0

    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a request audit refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    capsys.readouterr()
    assert main(["audit", "--cert", str(out), "--samples", "-5", "--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == "--samples must be at least 0, got -5\n"
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 7}, "certificate p=3 n=7 does not match its target T3 (p=3 n=1)"),
        ({"p": 2}, "certificate p=2 n=1 does not match its target T3 (p=3 n=1)"),
        # consistent fields, but a request certify itself refuses
        ({"copies": 4, "n": 4}, "81 basis states exceed the 63 bits of a support mask"),
        ({"r": 13, "catalog_count": 100}, "r = 13 is not between 1 and the 12 catalog states"),
    ],
)
def test_audit_refuses_a_certificate_off_its_target(tmp_path, capsys, monkeypatch, fields, message):
    # the catalog comes from the certificate's p and n: a T3 m=1 certificate
    # with n = 7 used to run on, building the (3,7) catalog
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0
    out.write_text(json.dumps(dict(read_json(out), **fields)))

    def no_catalog(*args, **kwargs):
        raise AssertionError("build_catalog called for a certificate audit refuses")

    monkeypatch.setattr(cli, "build_catalog", no_catalog)
    capsys.readouterr()
    assert main(["audit", "--cert", str(out), "--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "a.json").exists()


def test_audit_refuses_many_copies_before_building_the_target(tmp_path, capsys, monkeypatch):
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0
    out.write_text(json.dumps(dict(read_json(out), copies=12, n=12)))
    _no_target(monkeypatch, "audit")
    capsys.readouterr()
    assert main(["audit", "--cert", str(out), "--out", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == "531441 basis states exceed the 63 bits of a support mask\n"
    assert not (tmp_path / "a.json").exists()


def test_audit_detects_tampering(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--target", "T3", "--m", "1", "--r", "2", "--out", str(out)]) == 0
    payload = read_json(out)
    payload["min_nonwitness_residual"] = 1e-9
    with open(out, "w") as fh:
        json.dump(payload, fh)
    assert main(["audit", "--cert", str(out), "--out", str(tmp_path / "a.json")]) == 1
    report = read_json(tmp_path / "a.json")
    assert not report["passed"]
    assert any("residual-gap" in f for f in report["failures"])


def test_search_cli_success_feeds_verify(tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", "--target", "S", "--m", "2", "--r", "2", "--seed", "0", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["success"]
    assert payload["residual"] <= 1e-10
    assert len(payload["subset"]) == 2
    dec_path = tmp_path / "dec.json"
    with open(dec_path, "w") as fh:
        json.dump(payload["decomposition"], fh)
    assert main(["verify", "--file", str(dec_path), "--exact", "--out", str(tmp_path / "v.json")]) == 0


def test_search_cli_failure_exit_one(tmp_path):
    out = tmp_path / "search.json"
    code = main(
        ["search", "--target", "H3", "--m", "2", "--r", "2", "--chains", "2", "--steps", "2000", "--out", str(out)]
    )
    assert code == 1
    payload = read_json(out)
    assert not payload["success"]
    assert payload["decomposition"] is None


def test_search_zero_chains_usage_error(tmp_path, capsys):
    out = tmp_path / "search.json"
    capsys.readouterr()
    assert main(["search", "--target", "S", "--m", "1", "--r", "1", "--chains", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "chains must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "0.9", "nan"])
def test_search_refuses_a_tol_the_exact_rescore_cannot_support(tmp_path, capsys, monkeypatch, tol):
    # the message and range of certify: a chain re-scores exactly only below 1e-6
    _no_catalog(monkeypatch)
    out = tmp_path / "search.json"
    capsys.readouterr()
    assert main(["search", "--target", "N", "--m", "2", "--r", "2", "--tol", tol, "--out", str(out)]) == 2
    want = "tol %g is not between the witness floor 1e-12 and the exact re-score threshold 1e-06\n" % float(tol)
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--r", "0"], "rank must be >= 1"),
        (["--r", "2", "--steps", "0"], "steps must be >= 1"),
        (["--r", "2", "--cooling", "1"], "cooling factor must lie in (0, 1)"),
        (["--r", "7439040"], "rank must be smaller than the catalog"),
        *[
            (["--r", "2", "--t0", t0], "initial temperature must be finite and above 0, got " + t0)
            for t0 in ("nan", "-1", "0", "inf")
        ],
    ],
)
def test_search_refuses_before_it_builds_the_catalog(tmp_path, capsys, monkeypatch, extra, message):
    # N at 4 copies: the (3,4) catalog has 7,439,040 states, counted without building it
    _no_catalog(monkeypatch)
    monkeypatch.setattr(cli, "magic_power", lambda *args: pytest.fail("target built for a refused search"))
    out = tmp_path / "search.json"
    capsys.readouterr()
    assert main(["search", "--target", "N", "--m", "4", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("target,m,dim", [("N", "6", 729), ("N", "8", 6561), ("H", "8", 256)])
def test_search_refuses_a_catalog_it_cannot_lay_out(tmp_path, capsys, monkeypatch, target, m, dim):
    # the (3,5) and (2,7) catalogs are the largest a search builds
    _no_catalog(monkeypatch)
    monkeypatch.setattr(cli, "magic_power", lambda *args: pytest.fail("target built for a refused search"))
    out = tmp_path / "search.json"
    capsys.readouterr()
    assert main(["search", "--target", target, "--m", m, "--r", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "%d basis states exceed the 243 of the largest search catalog\n" % dim
    assert not out.exists()


def test_search_records_t0(tmp_path):
    # null when the chains calibrate their temperature, so an artifact repeats its run
    for extra, want in (([], None), (["--t0", "0.5"], 0.5)):
        out = tmp_path / "search.json"
        args = ["search", "--target", "H3", "--m", "2", "--r", "2", "--chains", "1", "--steps", "50", *extra]
        main([*args, "--out", str(out)])
        assert read_json(out)["t0"] == want


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_refuses_a_nan_or_negative_tol(tmp_path, capsys, monkeypatch, tol):
    _fixtures_must_not_run(monkeypatch)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["verify", "--all-fixtures", "--exact", "--tol", tol, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "--tol must be at least 0, got %g\n" % float(tol)
    assert not out.exists()


def test_search_cli_summary_reports_steps(tmp_path, capsys):
    out = tmp_path / "search.json"
    code = main(
        ["search", "--target", "H3", "--m", "2", "--r", "2", "--chains", "2", "--steps", "300", "--out", str(out)]
    )
    assert code == 1
    payload = read_json(out)
    summary = capsys.readouterr().out.splitlines()[0]
    steps = sum(t["steps"] for t in payload["chain_traces"])
    assert steps == 600
    assert "no witness" in summary and "2 chains, 600 steps, " in summary and " steps/s, " in summary
    # the chain diagnostics are deterministic: no timing field
    keys = {"chain", "best_residual", "temperature_at_best", "accepted", "steps", "moves", "trace"}
    assert all(set(t) == keys for t in payload["chain_traces"])


def test_sweep_twocopy_strange_cli(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "twocopy", "--state", "S", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["magic"] == "S"
    assert payload["kind"] == "two-copy"
    assert payload["total"] == 51840 * 3
    assert all(h["classification"] != "phase-state-nonclifford" for h in payload["hits"])


def test_orbit_cli(tmp_path):
    out = tmp_path / "orbit.json"
    assert main(["orbit", "--state", "S", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["size"] == 9
    assert payload["group_order"] == 216
    assert len(payload["elements"]) == 9


def test_bound_cli(tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--m", "26", "--state", "H3", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["value"] == pytest.approx(27 / (3 * math.log2(27)))
    assert payload["applicable"]
    assert payload["witness"]["ratio"] == pytest.approx(math.sqrt(3) + 1)
    assert len(payload["subsequence"]) == 27

    assert main(["bound", "--m", "3", "--state", "S", "--out", str(out)]) == 0
    payload = read_json(out)
    assert not payload["applicable"]
    assert payload["witness"] is None


def test_bound_refuses_a_subsequence_above_the_digit_limit(tmp_path, capsys, monkeypatch):
    # m+1 coordinates of m digits each: m = 2,000 wrote 28 MB, m = 100,000 would need about 70 GB
    def no_work(*args, **kwargs):
        raise AssertionError("bound did work for an --m it refuses")

    monkeypatch.setattr(cli, "moulton_bound", no_work)
    monkeypatch.setattr(cli, "find_ratio_witness", no_work)
    out = tmp_path / "bound.json"
    limit = cli.SUBSEQUENCE_MAX_DIGITS
    m = math.isqrt(limit)  # m (m + 1) digits: just above the limit
    capsys.readouterr()
    assert main(["bound", "--m", str(m), "--state", "H3", "--out", str(out)]) == 2
    message = "--m %d needs a subsequence of %d digits, above the %d that bound --state writes\n"
    assert capsys.readouterr().err == message % (m, m * (m + 1), limit)
    assert not out.exists()
    # an --m at the limit, and any --m without --state, still run
    monkeypatch.undo()
    monkeypatch.setattr(cli, "SUBSEQUENCE_MAX_DIGITS", 30)
    assert main(["bound", "--m", "5", "--state", "H3", "--out", str(out)]) == 0
    assert len(read_json(out)["subsequence"]) == 6
    assert main(["bound", "--m", "6", "--state", "H3", "--out", str(out)]) == 2
    assert main(["bound", "--m", "100000", "--out", str(out)]) == 0


def test_exponent_cli(tmp_path):
    out = tmp_path / "exp.json"
    assert main(["exponent", "--r", "4", "--m", "3", "--p", "3", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["exponent"] == pytest.approx(0.4206, abs=1e-4)


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STABDECOMP_OUTDIR", str(tmp_path))
    assert main(["exponent", "--r", "2", "--m", "2", "--p", "3"]) == 0
    assert (tmp_path / "exponent-r2m2p3.json").exists()


def test_unknown_target_usage_error(tmp_path):
    assert main(["certify", "--target", "Q", "--m", "1", "--r", "1", "--out", str(tmp_path / "c.json")]) == 2
    assert main(["sweep", "twocopy", "--state", "H", "--out", str(tmp_path / "s.json")]) == 2


@pytest.mark.parametrize("p", ["1", "0"])
def test_exponent_refuses_p_below_two(tmp_path, capsys, p):
    out = tmp_path / "exp.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["exponent", "--r", "2", "--m", "1", "--p", p, "--out", str(out)])
    assert exc.value.code == 2
    # argparse's usage line, then one error line and no traceback
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: stabdecomp exponent")
    assert error == "stabdecomp exponent: error: argument --p: invalid choice: %s (choose from 2, 3)" % p
    assert not out.exists()
    with pytest.raises(ValueError, match="p must be at least 2, got %s" % p):
        exponent_from_bound(2, 1, int(p))


def test_one_table_names_every_magic_state(tmp_path, capsys):
    # magic_p reads p from the table that magic_power builds from; the qubit T
    # state is built from its two-copy block, so only its even powers exist
    for name in MAGIC_STATES:
        for m in range(4):
            if name == "T" and m % 2:
                with pytest.raises(ValueError, match="^qubit T tensor powers are exact only for even m$"):
                    magic_power(name, m)
            else:
                assert magic_p(name) == magic_power(name, m).p
    assert [magic_p(name) for name in MAGIC_STATES] == [3, 3, 3, 3, 2, 2]
    # one lookup refuses an unknown name, with one message wherever it comes from
    message = "unknown magic state 'X' (choose from S, N, H3, T3, H, T)"
    with pytest.raises(ValueError) as exc:
        magic_power("X", 1)
    assert str(exc.value) == message
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["search", "--target", "X", "--m", "1", "--r", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(known.FIXTURES["strange_m2"]().to_payload(), target="X")))
    assert main(["verify", "--file", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "twocopy", "--state", "H"], "sweeps cover the qutrit states: S, N, H3, T3"),
        (["orbit", "--state", "H"], "orbits cover the qutrit states: S, N, H3, T3"),
        (["bound", "--m", "3", "--state", "H"], "witness check covers the qutrit states: S, N, H3, T3"),
    ],
)
def test_non_qutrit_state_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()
