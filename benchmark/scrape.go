package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// promSample is one scrape of a /metrics endpoint: series (name plus its
// label set, exactly as exposed) → value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format as imgrn-server
// writes it: comment lines start with '#', every other line is
// "series value".
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sub returns after − before per series; a series absent before counts
// from zero.
func (after promSample) sub(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates other into s (summing the same series of several
// processes).
func (s promSample) add(other promSample) {
	for k, v := range other {
		s[k] += v
	}
}

// stageSum names the series holding the summed duration of one stage.
func stageSum(stage string) string {
	return `imgrn_stage_seconds_sum{stage="` + stage + `"}`
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func scrapeMetrics(ctx context.Context, p *proc) (promSample, error) {
	body, err := httpGet(ctx, p.url+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// durabilityStats is what the restart legs read of the "durability" block
// of /stats on a durable server.
type durabilityStats struct {
	WarmBoot        bool  `json:"warmBoot"`
	BootMillis      int64 `json:"bootMillis"`
	ReplayedRecords int   `json:"replayedRecords"`
	Checkpoints     int   `json:"checkpoints"`
}

func fetchDurability(ctx context.Context, p *proc) (*durabilityStats, error) {
	body, err := httpGet(ctx, p.url+"/stats")
	if err != nil {
		return nil, err
	}
	var st struct {
		Durability *durabilityStats `json:"durability"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decoding /stats of %s: %w", p.name, err)
	}
	if st.Durability == nil {
		return nil, fmt.Errorf("/stats of %s has no durability block", p.name)
	}
	return st.Durability, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (float64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(data[end+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// parseProcStatusKB extracts one "Key:   123 kB" line from the contents
// of /proc/<pid>/status.
func parseProcStatusKB(data []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds reads utime+stime of each of the given processes.
func cpuSeconds(pids []int) ([]float64, error) {
	out := make([]float64, len(pids))
	for i, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return nil, err
		}
		if out[i], err = parseProcStat(data); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// peakRSSMB sums VmHWM over the given processes, in MiB.
func peakRSSMB(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseProcStatusKB(data, "VmHWM")
		if err != nil {
			return 0, err
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

// selfCPUSeconds is the load generator's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
