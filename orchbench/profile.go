package main

// CPU-profile attribution by layer. The traced span runs under
// runtime/pprof; the profile (gzipped protobuf) is decoded here with the
// standard library only, and every sample is charged to the innermost
// stack frame that belongs to this module: a function of
// iorchestra/internal/<layer> is charged to <layer>, the benchmark's own
// code (package main) to "bench", any other iorchestra package to
// "other". Samples with no module frame at all (GC workers, the
// scheduler, idle network polling) go to "runtime". So the map, syscall
// and allocation time a layer causes counts as that layer's.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the per-layer CPU shares every traced run reports, in
// report order. Their shares sum to 100.
var layers = []string{
	"sim", "cluster", "guest", "pagecache", "blkio", "device", "hypervisor",
	"store", "bus", "core", "gstate", "trace", "metrics", "workload",
	"netstore", "stats", "bench", "other", "runtime",
}

// stack is one profile sample: its frames innermost first, and weight.
type stack struct {
	frames []string
	count  int64
}

// frameLayer names the layer a function belongs to, or "" when the
// function is outside this module.
func frameLayer(fn string) string {
	const internal = "iorchestra/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "iorchestra.") || strings.HasPrefix(fn, "iorchestra/"):
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// isSyscallFrame reports whether fn is the system-call layer of the Go
// runtime or standard library.
func isSyscallFrame(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") ||
		strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.")
}

// attribution is the per-layer split of a set of samples.
type attribution struct {
	total   int64
	byLayer map[string]int64
	syscall int64 // samples with a system-call frame anywhere on the stack
}

func (a *attribution) add(stacks []stack) {
	if a.byLayer == nil {
		a.byLayer = map[string]int64{}
	}
	for _, s := range stacks {
		layer := "runtime"
		for _, fn := range s.frames {
			if l := frameLayer(fn); l != "" {
				layer = l
				break
			}
		}
		a.byLayer[layer] += s.count
		a.total += s.count
		for _, fn := range s.frames {
			if isSyscallFrame(fn) {
				a.syscall += s.count
				break
			}
		}
	}
}

// pct is layer's share of all samples, in percent.
func (a *attribution) pct(layer string) float64 {
	return 100 * ratio(float64(a.byLayer[layer]), float64(a.total))
}

// report adds every <layer>.cpu_pct and the syscall share.
func (a *attribution) report(o *outcome) {
	for _, l := range layers {
		o.set(l+".cpu_pct", a.pct(l), "%")
	}
	o.set("netstore.syscall_pct", 100*ratio(float64(a.syscall), float64(a.total)), "%")
	o.set("profile.samples", float64(a.total), "count")
}

// profiler records CPU profiles of measured spans and accumulates their
// attribution.
type profiler struct {
	buf bytes.Buffer
	att attribution
}

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.att.add(stacks)
	return nil
}

// parseProfile decodes the samples of a gzipped pprof profile into
// symbolized stacks. Only the fields attribution needs are read:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2).
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var values []int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[0] // CPU profiles: [samples/count, cpu/nanoseconds]
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5:
			var id, name uint64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.value}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn for every field with its
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
