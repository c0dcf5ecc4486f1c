package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// flushPolicy is the journal durability setting every journaled workload
// runs at: journal.Options{} leaves SyncEvery at 0, one fsync per record.
const flushPolicy = "SyncEvery=0 (fsync per record)"

// stamp records the machine and policy a result was taken under. Results
// from different CPU counts are not comparable: the program's worker pools
// default to GOMAXPROCS.
type stamp struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	JournalFS   string `json:"journal_fs"`
	FlushPolicy string `json:"flush_policy"`
}

func machineStamp(journalDir string) stamp {
	return stamp{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		JournalFS:   fsType(journalDir),
		FlushPolicy: flushPolicy,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsMagic names the statfs(2) f_type values a journal directory is likely
// to sit on; fsync cost differs by an order of magnitude between them.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x01021997: "9p",
	0x6a656a63: "virtiofs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
