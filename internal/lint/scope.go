package lint

import (
	"go/ast"
	"path"
	"strings"
)

// A scope is the set of path-scoped contracts that apply to a file.
type scope uint8

const (
	// dataset: ROAM003 maporder and ROAM007 clockpurity. The contracts
	// apply where code produces or transforms campaign datasets: the
	// simulation core, the measurement campaigns, the table/figure
	// emitters, and the fleet ingest path that canonicalizes uploads
	// back into datasets — plus everything migrated onto the injectable
	// campaign clock (internal/vclock): the fleet driver, the amigo
	// endpoint, and chaos. Those layers used to be out of scope because
	// they legitimately slept and timed out on the wall clock; now that
	// every wait goes through vclock.Clock, a direct time.Sleep /
	// time.After there is a regression that would silently stall
	// virtual-time campaigns. The remaining control plane (the amigo
	// server, cmd/ mains, examples) still reads the wall clock for HTTP
	// timeouts and reporting and stays out; obs is IN scope precisely so
	// its few real-time touch points carry visible, justified
	// //lint:allow directives instead of silently expanding — as does
	// vclock itself, whose Real implementation is the one sanctioned
	// home of the wall clock.
	dataset scope = 1 << iota

	// durable: ROAM006 fsyncrename. The crash-safety contract — tmp →
	// File.Sync → os.Rename → directory fsync for every committed
	// artifact — applies where the repo writes durable state.
	// Everything else renames nothing durable, and a scope this tight
	// keeps the analyzer's "every os.Rename is a commit" premise true.
	durable

	// controlPlane: ROAM008 gojoin. A leaked goroutine in the long-lived
	// control plane or the campaign engine races fleet shutdown, holds a
	// WAL handle past Close, or keeps mutating state after the dataset
	// is sealed. The model packages are pure functions that spawn
	// nothing and stay out; cmd mains are IN because a fire-and-forget
	// server goroutine is exactly the bug class this catches.
	controlPlane
)

// scopes is the one scope table. A key is a module-relative package
// directory, covering its whole subtree ("" covers the root package
// only), or one file ending in ".go". Every key must name a directory
// or file that exists (TestScopeTablesNameRealPaths): a stale entry
// silently drops the coverage it was added for.
var scopes = map[string]scope{
	"":                           dataset, // the root facade package
	"cmd":                        controlPlane,
	"internal/airalo":            dataset, // world model
	"internal/amigo":             controlPlane,
	"internal/amigo/endpoint.go": dataset,                // every wait on the campaign clock
	"internal/amigo/payload.go":  dataset,                // writes the uploaded bytes
	"internal/cdnsim":            dataset,                // CDN campaign model
	"internal/chaos":             dataset | controlPlane, // fault schedules must replay from seeds
	"internal/core":              dataset,                // demarcation + classification
	"internal/dnssim":            dataset,                // DNS campaign model
	"internal/esimdb":            dataset,                // marketplace dataset
	"internal/experiments":       dataset | controlPlane, // campaign engine + tables/figures
	"internal/fleet":             controlPlane,
	"internal/fleet/driver.go":   dataset,                          // every wait on the campaign clock
	"internal/fleet/ingest.go":   dataset,                          // canonicalizes uploads into datasets
	"internal/fleet/reshard.go":  dataset | durable,                // re-homed WAL records; the wal-manifest.json commit point
	"internal/geo":               dataset,                          // geodesic model
	"internal/inet":              dataset,                          // transit topology
	"internal/ipaddr":            dataset,                          // deterministic address plans
	"internal/ipreg":             dataset,                          // registry lookups
	"internal/ipx":               dataset,                          // IPX demarcation model
	"internal/measure":           dataset,                          // measurement primitives
	"internal/mno":               dataset,                          // operator model
	"internal/netsim":            dataset,                          // packet-level network simulation
	"internal/obs":               dataset | controlPlane,           // exposition must be canonical
	"internal/report":            dataset,                          // table rendering
	"internal/rng":               dataset,                          // the rng discipline itself
	"internal/shard":             dataset | durable | controlPlane, // placement is a pure function of ME name; reshard destination WALs
	"internal/signaling":         dataset,                          // SS7/Diameter model
	"internal/stats":             dataset,                          // summary statistics
	"internal/vclock":            dataset | controlPlane,           // the clock discipline itself; Real carries the allows
	"internal/video":             dataset,                          // video campaign model
	"internal/vmnocore":          dataset,                          // VMNO core model
	"internal/walsink":           dataset | durable | controlPlane, // WAL bytes are canonical, segments and compaction artifacts durable
	"internal/webcampaign":       dataset,                          // web campaign model
	"internal/wire":              dataset | controlPlane,           // v3 codec: canonical bytes, no wall clock
}

// inScope reports whether contract s applies to file f of package p:
// through an entry for the file itself, or for the package's directory
// or one above it.
func inScope(s scope, p *Package, f *ast.File) bool {
	rel, ok := moduleRel(p.Path)
	if !ok {
		return false
	}
	if scopes[path.Join(rel, path.Base(p.Fset.Position(f.Pos()).Filename))]&s != 0 {
		return true
	}
	for dir := rel; dir != "."; dir = path.Dir(dir) {
		if scopes[dir]&s != 0 {
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
