# End-to-end smoke test for teamdisc_cli, run via `cmake -P` so it works on
# any platform ctest runs on. Drives: generate -> info -> skills -> find ->
# pareto -> build-index -> apply-update on a tiny synthetic network, checking
# exit codes and output shape, plus the rejection paths for unknown flags,
# malformed flag values and `serve` without --listen. That the updated
# snapshot then serves with 0 index builds is checked in snapshot_test; the
# listening server is covered by http_server_test and server_drain_test.
#
# Required -D variables: TEAMDISC_CLI (path to binary), WORK_DIR (scratch dir).

if(NOT TEAMDISC_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DTEAMDISC_CLI=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(NET "${WORK_DIR}/tiny.net")
set(SNAP "${WORK_DIR}/snapshot")

function(run_cli expect_substr)
  execute_process(
    COMMAND ${TEAMDISC_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "teamdisc_cli ${ARGN} exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(expect_substr AND NOT out MATCHES "${expect_substr}")
    message(FATAL_ERROR "teamdisc_cli ${ARGN}: output missing '${expect_substr}'\nstdout:\n${out}")
  endif()
  set(CLI_OUT "${out}" PARENT_SCOPE)
endfunction()

# Expects the command to fail with exit code `expect_rc` and stderr matching
# `expect_substr` (the unknown-flag diagnostic path).
function(run_cli_expect_fail expect_rc expect_substr)
  execute_process(
    COMMAND ${TEAMDISC_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "teamdisc_cli ${ARGN}: expected exit ${expect_rc}, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(expect_substr AND NOT err MATCHES "${expect_substr}")
    message(FATAL_ERROR "teamdisc_cli ${ARGN}: stderr missing '${expect_substr}'\nstderr:\n${err}")
  endif()
endfunction()

# 1. generate: writes the network file and reports its shape.
run_cli("wrote .*tiny\\.net" generate "${NET}" --experts=150 --edges=500 --seed=7)
if(NOT EXISTS "${NET}")
  message(FATAL_ERROR "generate did not create ${NET}")
endif()

# 2. info: statistics incl. component and degree summaries.
run_cli("components:" info "${NET}")
run_cli("degree:" info "${NET}")

# 3. skills: table with header columns `skill` and `holders`.
run_cli("skill" skills "${NET}")
run_cli("holders" skills "${NET}")

# Parse one skill name out of the skills table. Data rows look like
# "| distributed_systems | 52 |"; pick a skill with several holders so the
# find/pareto steps have a non-trivial candidate pool.
string(REPLACE "\n" ";" skill_lines "${CLI_OUT}")
set(SKILL "")
foreach(line ${skill_lines})
  if(line MATCHES "^\\| +([^|]*[^| ]) +\\| +([0-9]+) +\\|" AND
     NOT CMAKE_MATCH_1 STREQUAL "skill" AND CMAKE_MATCH_2 GREATER 2)
    set(SKILL "${CMAKE_MATCH_1}")
    break()
  endif()
endforeach()
if(SKILL STREQUAL "")
  message(FATAL_ERROR "could not parse a skill name from skills output:\n${CLI_OUT}")
endif()
# Names round-trip exactly now (percent-escaped in the file), so the table's
# skill name — spaces and all — is the name the CLI takes.

# 4. find: top-1 team for a single-skill project; expect a ranked team with
# an objective value and the CC/CA/SA breakdown line.
run_cli("#1 \\(objective " find "${NET}" "--skills=${SKILL}" --strategy=sacacc --top-k=1)
run_cli("CC=" find "${NET}" "--skills=${SKILL}" --oracle=dijkstra)

# 5. pareto: front table over (CC, CA, SA).
run_cli("CC" pareto "${NET}" "--skills=${SKILL}" --grid=3)

# 6. Unknown flags are rejected with exit 2 and a diagnostic naming the
# valid ones — a typo'd --gama must never silently use the default gamma.
run_cli_expect_fail(2 "unknown flag --gama" find "${NET}" "--skills=${SKILL}" --gama=0.5)
run_cli_expect_fail(2 "valid flags: .*--gamma" find "${NET}" "--skills=${SKILL}" --gama=0.5)
run_cli_expect_fail(2 "unknown flag --expert" generate "${WORK_DIR}/x.net" --expert=5)
run_cli_expect_fail(2 "this command takes no flags" info "${NET}" --verbose)
# Malformed values are rejected the same way, naming the flag — never run
# with the default (gamma 0.6, top-k 1, the PLL oracle).
run_cli_expect_fail(2 "bad value for --gamma" find "${NET}" "--skills=${SKILL}" --gamma=abc)
run_cli_expect_fail(2 "bad value for --top-k" find "${NET}" "--skills=${SKILL}" --top-k=x)
run_cli_expect_fail(2 "unknown oracle 'bogus'" find "${NET}" "--skills=${SKILL}" --oracle=bogus)

# 7. build-index: writes a serving snapshot with fingerprinted artifacts.
run_cli("wrote snapshot .*2 index artifact" build-index "${NET}" "${SNAP}" --gammas=0.6)
if(NOT EXISTS "${SNAP}/manifest.txt")
  message(FATAL_ERROR "build-index did not write ${SNAP}/manifest.txt")
endif()
if(NOT EXISTS "${SNAP}/index-g6000-pll.pll")
  message(FATAL_ERROR "build-index did not write the gamma=0.6 artifact")
endif()
run_cli_expect_fail(2 "unknown flag --gama" build-index "${NET}" "${SNAP}" --gama=0.6)

# 8. apply-update: build-index -> apply-update must round-trip on disk. A
# skill-only delta keeps every artifact (0 rebuilt) and bumps the manifest
# generation; the versioned network file replaces the original.
file(WRITE "${WORK_DIR}/update.delta" "teamdisc-delta v1\nadd-skill 0 smoke-churn\n")
run_cli("now generation 1" apply-update "${SNAP}" "${WORK_DIR}/update.delta")
run_cli_expect_fail(1 "" apply-update "${SNAP}" "${WORK_DIR}/no-such.delta")
if(NOT EXISTS "${SNAP}/network-g1.net")
  message(FATAL_ERROR "apply-update did not write the generation-1 network")
endif()
# Deltas are strict logs: re-applying the same add-skill must be rejected
# (the expert already holds it), and a revoke delta keeps both artifacts.
run_cli_expect_fail(1 "already holds" apply-update "${SNAP}" "${WORK_DIR}/update.delta")
file(WRITE "${WORK_DIR}/revoke.delta" "teamdisc-delta v1\nrevoke-skill 0 smoke-churn\n")
execute_process(COMMAND ${TEAMDISC_CLI} apply-update "${SNAP}" "${WORK_DIR}/revoke.delta"
                OUTPUT_VARIABLE APPLY_OUT RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT APPLY_OUT MATCHES "2 kept .* 0 rebuilt")
  message(FATAL_ERROR "revoke apply-update should keep both artifacts:\n${APPLY_OUT}")
endif()

# 9. serve is the HTTP server only: without --listen it exits 2 with usage,
# and its flags are checked like every other command's.
run_cli_expect_fail(2 "usage: teamdisc_cli serve" serve "${SNAP}")
run_cli_expect_fail(2 "unknown flag --requests" serve "${SNAP}" --requests=8)
run_cli_expect_fail(2 "bad value for --workers" serve "${SNAP}" --listen=:0 --workers=two)

message(STATUS "cli_smoke passed")
