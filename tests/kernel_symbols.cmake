# One copy per ISA of every kernel body: fails when a global or weak symbol
# is defined in more than one of the kernel variant objects (scalar, avx2,
# avx512).  Such a symbol is a body both TUs emitted out of line; the linker
# keeps one copy for both dispatch tables, so one level would silently run
# the other level's code.  DW.ref.* names are skipped: they are data words
# the compiler emits for exception-handling personality references (e.g.
# DW.ref.__gxx_personality_v0 under --coverage), not code.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>|... -P kernel_symbols.cmake
cmake_minimum_required(VERSION 3.20)

string(REPLACE "|" ";" objects "${OBJECTS}")
set(variants 0)
set(defined "")
set(shared "")
foreach(obj IN LISTS objects)
  get_filename_component(name "${obj}" NAME)
  if(NOT name MATCHES "^(scalar|avx2|avx512)\\.")
    continue()
  endif()
  math(EXPR variants "${variants} + 1")
  execute_process(COMMAND "${NM}" --defined-only "${obj}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${listing}")
  foreach(line IN LISTS lines)
    # Upper-case types (and 'u', unique global) are external definitions.
    if(line MATCHES "^[0-9a-fA-F]* ([BDRTVWu]) (.+)$")
      set(symbol "${CMAKE_MATCH_2}")
      if(symbol MATCHES "^DW\\.ref\\.")
        continue()
      endif()
      if(symbol IN_LIST defined)
        list(APPEND shared "${symbol} (again in ${name})")
      else()
        list(APPEND defined "${symbol}")
      endif()
    endif()
  endforeach()
endforeach()

if(NOT variants EQUAL 3)
  message(FATAL_ERROR "expected the scalar, avx2 and avx512 objects, found ${variants}")
endif()
if(shared)
  list(JOIN shared "\n  " report)
  message(FATAL_ERROR "kernel symbols defined in more than one ISA object:\n  ${report}")
endif()
message(STATUS "kernel variant objects share no external definition")
