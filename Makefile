# Convenience targets for the reproduction.

PYTHON ?= python

# The package runs from the source tree; `make install` is optional.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# The CI iss-equivalence job: each ISS backend must stay bit-identical to
# the quantum=1 reference, one leg per backend.
ISS_BACKENDS = reference compiled vector
ISS_EQUIVALENCE_TESTS = tests/test_iss_fastpath_equivalence.py \
	tests/test_backend_compiled.py tests/test_cir_iss_differential.py \
	tests/test_backend_vector.py tests/test_lane_divergence.py \
	tests/test_snapshot_determinism.py

.PHONY: install test bench examples reproduce trace-demo iss-matrix all clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do \
		echo "== $$f =="; \
		$(PYTHON) $$f > /dev/null || exit 1; \
	done; echo "all examples ran cleanly"

reproduce:
	$(PYTHON) examples/reproduce_all.py

# Cross-layer trace of the JPEG pipeline; open the JSON in Perfetto or
# chrome://tracing.
trace-demo:
	$(PYTHON) examples/trace_explorer.py --out jpeg_pipeline.trace.json

iss-matrix:
	@for backend in $(ISS_BACKENDS); do \
		echo "== REPRO_ISS_BACKEND=$$backend =="; \
		REPRO_ISS_BACKEND=$$backend $(PYTHON) -m pytest \
			$(ISS_EQUIVALENCE_TESTS) -x -q || exit 1; \
	done; echo "all ISS backends equivalent"

all: install test bench examples

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
