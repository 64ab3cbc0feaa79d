# Developer entry points (mirrors the reference's make targets)
.PHONY: test bench scaling lint loc

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
