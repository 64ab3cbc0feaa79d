# Developer entry points (mirrors the reference's make targets)
.PHONY: test bench scaling lint loc perfbench

test:
	python -m pytest tests/ -x -q

bench:
	python bench.py

scaling:
	python bench.py --scaling

# quick import + compile check (no external linter in this environment)
lint:
	python -m compileall -q data_hub_ejp_xml_pipeline_ray tests bench.py __ray_entry__.py

# net package size, the figure design changes report in CHANGES.md
loc:
	cat data_hub_ejp_xml_pipeline_ray/*.py data_hub_ejp_xml_pipeline_ray/*/*.py | wc -l

# one steady run of each perfbench workload, one JSON line each: the
# before/after figures a performance change reports (SEED=n picks the run)
SEED ?= 1
perfbench:
	@for w in backfill trickle rewrite; do \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds 20 --trace 0 || exit 1; \
	done
