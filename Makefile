# Convenience entry points. The build itself is CMake (see README); this
# Makefile only bundles the lint stack so "make lint" runs every analysis
# layer that works on the local toolchain.
#
#   make lint              rfid-verify --fast, rfid-verify (+ clang-tidy if present)
#   make lint BUILD_DIR=b  point the analyzers at another build tree

BUILD_DIR ?= build

.PHONY: lint
lint:
	python3 tools/rfid_verify --fast
	python3 tools/rfid_verify --build-dir $(BUILD_DIR)
	@if command -v clang-tidy >/dev/null 2>&1; then \
	  python3 tools/run_clang_tidy_cached.py --build-dir $(BUILD_DIR); \
	else \
	  echo "lint: clang-tidy not installed — tidy layer skipped (CI runs it)"; \
	fi
