package lint

import (
	"path"
	"strings"
)

// Deterministic package scope.
//
// The wallclock and maporder contracts apply only where code produces
// or transforms campaign datasets: the simulation core, the measurement
// campaigns, the table/figure emitters, and the fleet ingest path that
// canonicalizes uploads back into datasets — plus everything migrated
// onto the injectable campaign clock (internal/vclock): the fleet
// driver, the amigo endpoint, and chaos. Those layers used to be out of
// scope because they legitimately slept and timed out on the wall
// clock; now that every wait goes through vclock.Clock, a direct
// time.Sleep / time.After there is a regression that would silently
// stall virtual-time campaigns, so the lint rejects it. The remaining
// control plane (the amigo server, cmd/ mains, examples) still reads
// the wall clock for HTTP timeouts and reporting and stays out of
// scope; obs is IN scope precisely so its few real-time touch points
// carry visible, justified //lint:allow directives instead of silently
// expanding — as does vclock itself, whose Real implementation is the
// one sanctioned home of the wall clock.

// detSubtrees are module-relative package prefixes (after "roamsim" /
// "roamsim/") whose whole subtree is dataset-producing.
var detSubtrees = []string{
	"",                     // the root facade package
	"internal/airalo",      // world model
	"internal/cdnsim",      // CDN campaign model
	"internal/chaos",       // fault schedules must replay from seeds
	"internal/core",        // demarcation + classification
	"internal/dnssim",      // DNS campaign model
	"internal/esimdb",      // marketplace dataset
	"internal/experiments", // campaign engine + tables/figures
	"internal/geo",         // geodesic model
	"internal/gtp",         // codec + pcap writer
	"internal/inet",        // transit topology
	"internal/ipaddr",      // deterministic address plans
	"internal/ipreg",       // registry lookups
	"internal/ipx",         // IPX demarcation model
	"internal/measure",     // measurement primitives
	"internal/mno",         // operator model
	"internal/netsim",      // packet-level network simulation
	"internal/obs",         // exposition must be canonical
	"internal/report",      // table rendering
	"internal/rng",         // the rng discipline itself
	"internal/shard",       // placement must be a pure function of ME name
	"internal/signaling",   // SS7/Diameter model
	"internal/stats",       // summary statistics
	"internal/vclock",      // the clock discipline itself; Real carries the allows
	"internal/video",       // video campaign model
	"internal/vmnocore",    // VMNO core model
	"internal/voip",        // VoIP campaign model
	"internal/walsink",     // WAL bytes are canonical; fsync timing is allow-listed
	"internal/webcampaign", // web campaign model
	"internal/wire",        // v3 codec: canonical bytes, no wall clock
}

// detFiles puts single files of otherwise out-of-scope packages in
// scope: fleet's ingest path canonicalizes uploads into datasets, the
// driver and endpoint take every wait through the injectable campaign
// clock, and the reshard/replay path re-homes WAL records whose bytes
// and placement must be pure functions of the record stream — the rest
// of those packages (server, transports) drives real HTTP and stays
// out.
var detFiles = map[string][]string{
	"internal/amigo": {"endpoint.go"},
	"internal/fleet": {"ingest.go", "driver.go", "reshard.go"},
}

// deterministic reports whether the given file of package pkgPath is
// under the dataset-determinism contract.
func deterministic(p *Package, filename string) bool {
	return scopedBy(p, filename, detSubtrees, detFiles)
}

// Durability scope (ROAM006 fsyncrename).
//
// The crash-safety contract — tmp → File.Sync → os.Rename → directory
// fsync for every committed artifact — applies where the repo writes
// durable state: the WAL sink (segments + compaction artifacts), the
// shard control plane (reshard WAL copies), and fleet's reshard path
// (the wal-manifest.json epoch commit point). Everything else renames
// nothing durable, and a scope this tight keeps the analyzer's "every
// os.Rename is a commit" premise true.
var durabilitySubtrees = []string{
	"internal/walsink", // WAL segments and compaction artifacts
	"internal/shard",   // reshard destination WALs
}

var durabilityFiles = map[string][]string{
	"internal/fleet": {"reshard.go"}, // wal-manifest.json commit point
}

// durabilityScoped reports whether the given file of package pkgPath
// is under the crash-safe rename contract.
func durabilityScoped(p *Package, filename string) bool {
	return scopedBy(p, filename, durabilitySubtrees, durabilityFiles)
}

// Control-plane scope (ROAM008 gojoin).
//
// Goroutine-join hygiene applies to the long-lived control plane and
// the campaign engine: a leaked goroutine there either races fleet
// shutdown, holds a WAL handle past Close, or — worst — keeps mutating
// state after the dataset is sealed. The simulation/model packages are
// pure functions that spawn nothing, so they stay out of scope; cmd
// mains are IN scope because a fire-and-forget server goroutine is
// exactly the bug class this catches.
var controlPlaneSubtrees = []string{
	"cmd",
	"internal/amigo",
	"internal/chaos",
	"internal/experiments",
	"internal/fleet",
	"internal/obs",
	"internal/shard",
	"internal/vclock",
	"internal/walsink",
	"internal/wire",
}

// controlPlaneScoped reports whether the given file of package pkgPath
// is under the goroutine-join contract.
func controlPlaneScoped(p *Package, filename string) bool {
	return scopedBy(p, filename, controlPlaneSubtrees, nil)
}

// scopedBy is the shared subtree+file scope matcher.
func scopedBy(p *Package, filename string, subtrees []string, files map[string][]string) bool {
	rel, ok := moduleRel(p.Path)
	if !ok {
		return false
	}
	for _, prefix := range subtrees {
		if rel == prefix || (prefix != "" && strings.HasPrefix(rel, prefix+"/")) {
			return true
		}
	}
	for _, f := range files[rel] {
		if path.Base(filename) == f {
			return true
		}
	}
	return false
}

// moduleRel converts an import path to its module-relative form
// ("roamsim/internal/core" → "internal/core", "roamsim" → "").
func moduleRel(pkgPath string) (string, bool) {
	const mod = "roamsim"
	if pkgPath == mod {
		return "", true
	}
	if rest, ok := strings.CutPrefix(pkgPath, mod+"/"); ok {
		return rest, true
	}
	return "", false
}
