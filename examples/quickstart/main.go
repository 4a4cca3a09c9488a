// Quickstart: build the simulated Airalo world, attach an eSIM while
// "traveling" in Germany, discover where its traffic actually breaks
// out, and measure what that does to performance.
package main

import (
	"fmt"
	"log"

	"roamsim"
)

func main() {
	w, err := roamsim.NewWorld(42)
	if err != nil {
		log.Fatal(err)
	}

	// The traveler lands in Germany and activates their Airalo eSIM.
	dep := w.Deployment("DEU")
	session, err := dep.AttachESIM(w.Rand())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Attached in %s via v-MNO %s; the eSIM was issued by %s (%s)\n",
		dep.Country.Name, dep.VMNO.Name, dep.BMNO.Name, dep.BMNO.Country)
	fmt.Printf("Public IP: %s\n", session.PublicIP)

	// Where does the traffic actually reach the internet?
	arch, err := w.ClassifyArchitecture(session)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Roaming architecture: %s — breakout at %s, %s (%s)\n",
		arch, session.Site.City, session.Site.Country, session.Provider.Name)
	if span := session.TunnelSpanKm(); span > 0 {
		fmt.Printf("GTP tunnel span: %.0f km\n", span)
	}

	// A traceroute shows the private/public split directly.
	tr, err := roamsim.Traceroute(session, "Google", w.Rand())
	if err != nil {
		log.Fatal(err)
	}
	pa, err := w.Demarcate(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Traceroute to Google: %d private hops, then PGW %s (%s), %d public hops\n",
		pa.PrivateHops, pa.PGW.Addr, pa.PGW.AS.Org, pa.PublicHops)
	fmt.Printf("%.0f%% of the end-to-end latency is spent before the breakout\n",
		pa.PrivateFraction*100)

	// And the performance picture.
	st, err := roamsim.Speedtest(session, w.Rand())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Speedtest (server %s): %.1f down / %.1f up Mbps, %.0f ms\n",
		st.ServerCity, st.DownMbps, st.UpMbps, st.LatencyMs)
	dns, err := roamsim.DNSLookup(session, w.Rand())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DNS: %s in %s, %.0f ms (DoH: %v)\n",
		dns.Resolver.Name, dns.Resolver.Country, dns.DurationMs, dns.DoH)
}
