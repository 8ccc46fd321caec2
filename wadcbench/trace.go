package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Op     int    `json:"op"`       // op index within its round, -1 outside ops
	Start  int64  `json:"start_ns"` // since the span log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the benchmark ends.
// Ops of a round run on several workers, so it is locked. A nil *spanLog
// records nothing, which is how untraced runs skip it.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent, op int) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = now
}

// durations returns the durations of every closed span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeTraceFiles writes the spans as JSON and each CPU profile as a pprof
// file into dir.
func writeTraceFiles(dir, prefix string, l *spanLog, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, prefix+".spans.json"), data, 0o644); err != nil {
		return err
	}
	for i, p := range profiles {
		name := fmt.Sprintf("%s.cpu%d.pprof", prefix, i)
		if err := os.WriteFile(filepath.Join(dir, name), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "wadc/internal/"

// profileSamples reads a gzip-compressed CPU profile in the profile.proto
// format that runtime/pprof writes and returns the sample count per
// simulator package: each sample goes to the package of its innermost
// wadc/internal/<pkg> frame, or to "runtime" when its stack has none.
func profileSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function -> string-table index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendRepeated(s.locs, v, b)
				case 2:
					vals, err = appendRepeated(vals, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
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
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
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
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		out[samplePackage(s.locs, locFns, fnName, strs)] += s.count
	}
	return out, nil
}

// samplePackage returns the simulator package of a sample's innermost
// module frame, or "runtime". Locations run leaf first, and the lines of a
// location run from the innermost inlined function outwards.
func samplePackage(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]uint64, strs []string) string {
	for _, l := range locs {
		for _, f := range locFns[l] {
			i, ok := fnName[f]
			if !ok || i >= uint64(len(strs)) {
				continue
			}
			name := strs[i]
			if !strings.HasPrefix(name, modulePrefix) {
				continue
			}
			pkg := name[len(modulePrefix):]
			if j := strings.IndexAny(pkg, "./"); j >= 0 {
				pkg = pkg[:j]
			}
			return pkg
		}
	}
	return "runtime"
}

var errTruncated = errors.New("truncated protobuf message")

// fields walks the fields of one protobuf message, calling fn with each
// field number and its varint value or its length-delimited bytes. Fixed
// 32- and 64-bit fields, which the profile format does not use for the
// fields read here, are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// appendRepeated appends one occurrence of a repeated varint field, which
// arrives either as a single varint or as a packed run of them.
func appendRepeated(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}
