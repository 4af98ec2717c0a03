"""A seconds-long run of the synthetic recipe: byte drift shows up here
without waiting for the full-size determinism criterion."""

from axcrf.experiment import ExperimentConfig, run_synthetic_experiment

MINI = ExperimentConfig(n_points=4000, max_epochs_step1=2, max_epochs_step2=2,
                        min_points=16, n_sample=64, K=4, D_list=(1, 2), crf_K=4)
ARTIFACTS = {"step1.ckpt", "step2.ckpt", "report.json", "step1.jsonl",
             "step2.jsonl", "test_predictions.txt", "test_report.txt"}


def test_mini_recipe_is_byte_identical(tmp_path):
    for run in ("a", "b"):
        run_synthetic_experiment(MINI, out_dir=tmp_path / run)
    written = {p.name for p in (tmp_path / "a").iterdir()}
    assert written == ARTIFACTS | {"timings.json"}
    for name in sorted(ARTIFACTS):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
